//! The event loop: poll-driven, nonblocking, frame-at-a-time.
//!
//! [`serve_loop`] is one reactor thread. It polls a shared nonblocking
//! [`Listener`] plus every connection it has accepted; multiple loops
//! run against the same listener for multi-core serving (the kernel
//! load-balances accepts), and each loop owns its connections outright
//! — connection state is never shared, so none of it is locked.
//!
//! Per connection the loop keeps a read buffer (bytes in, frames
//! extracted by a boundary state machine: 4-byte `u32 LE` length, then
//! that many payload bytes), a write buffer (reply frames queued,
//! drained as the socket accepts them), and the service's own
//! per-connection state ([`FrameService::Conn`]), which lives and dies
//! with the connection. A complete request payload is handed to the
//! [`FrameService`] *on the reactor thread* together with that state
//! and an emitter; the loop collects every emitted frame and judges the
//! whole reply against the write budget before queueing any of it. The
//! service's answer time is the loop's latency floor, which is the
//! design trade: queries against an immutable snapshot are pure CPU,
//! and N loops give N concurrent computations without any
//! thread-per-connection overhead.

use crate::endpoint::{Conn, Listener};
use crate::stats::ReactorStats;
use crate::sys::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use std::io::{self, Read, Write};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What a [`FrameService`] tells the reactor after handling a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep the connection open.
    Continue,
    /// Flush, close, and shut the whole reactor down (every loop).
    Shutdown,
}

/// The protocol brain the reactor drives. Implementations must be
/// callable from several reactor threads at once; whatever one
/// connection must remember between its frames lives in that
/// connection's own [`FrameService::Conn`], never in the service.
pub trait FrameService: Sync {
    /// Per-connection protocol state (e.g. a staged snapshot install):
    /// created with `Default` when a connection is accepted, handed to
    /// every frame it sends, and dropped with the connection.
    type Conn: Default;

    /// Handle one complete request payload (the bytes after the length
    /// prefix) from the connection whose state is `conn`, passing each
    /// reply payload to `emit` in order (the transport adds the `u32 LE`
    /// length prefix), and say what happens to the connection next.
    /// Malformed payloads are the service's to answer (e.g. with a
    /// typed error frame) — the reactor only kills a connection on
    /// transport-level problems (unparseable length, i/o errors).
    ///
    /// # Errors
    /// Whatever `emit` returns; the connection is then dropped.
    fn handle_frame(
        &self,
        conn: &mut Self::Conn,
        payload: &[u8],
        emit: &mut dyn FnMut(Vec<u8>) -> io::Result<()>,
    ) -> io::Result<Control>;

    /// The payload substituted when a reply exceeds the write budget
    /// or a connection is rejected at the connection cap (the sketch
    /// protocol answers `ERR_BUSY`). Must be small.
    fn busy_payload(&self) -> Vec<u8>;
}

/// Reactor tuning knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Kill a connection whose frame header announces a payload larger
    /// than this — framing can never resynchronize past it.
    pub max_frame_len: usize,
    /// Per-connection write-buffer budget. Above it the connection is
    /// not read (backpressure); a single reply larger than it is
    /// replaced by the busy frame.
    pub write_budget: usize,
    /// Open-connection cap across all loops sharing the stats; beyond
    /// it new connections get the busy frame and are dropped.
    pub max_conns: usize,
    /// Poll timeout: how quickly an idle loop notices shutdown.
    pub tick: Duration,
    /// Reap a connection that has shown no socket activity (no bytes
    /// in, no writable progress on queued replies) for this long —
    /// wedged or abandoned clients stop holding fd slots against
    /// `max_conns`. `None` (the default) keeps connections forever,
    /// the historical behaviour.
    pub idle_timeout: Option<Duration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            max_frame_len: 64 << 20,
            write_budget: 8 << 20,
            max_conns: 1024,
            tick: Duration::from_millis(50),
            idle_timeout: None,
        }
    }
}

/// How many ticks a shutting-down loop keeps trying to flush pending
/// replies before dropping the connections mid-stream.
const DRAIN_TICKS: u32 = 20;

struct ConnState<C> {
    conn: Conn,
    /// The service's state for this connection ([`FrameService::Conn`]).
    state: C,
    /// Bytes received, not yet framed.
    rbuf: Vec<u8>,
    /// Bytes queued to send; `wpos` already sent.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Flush `wbuf`, then close.
    closing: bool,
    /// Transport failure or protocol violation: drop immediately.
    dead: bool,
    /// Last time the socket showed life (readable or writable-with-
    /// progress), for idle reaping.
    last_activity: Instant,
}

impl<C: Default> ConnState<C> {
    fn new(conn: Conn) -> Self {
        Self {
            conn,
            state: C::default(),
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            closing: false,
            dead: false,
            last_activity: Instant::now(),
        }
    }

    fn pending(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn queue_frame(&mut self, payload: &[u8]) {
        self.wbuf.extend_from_slice(
            &u32::try_from(payload.len())
                .expect("frame fits u32")
                .to_le_bytes(),
        );
        self.wbuf.extend_from_slice(payload);
    }

    /// Write as much of `wbuf` as the socket accepts right now.
    fn flush(&mut self) {
        while self.wpos < self.wbuf.len() {
            match self.conn.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
            if self.closing {
                self.dead = true;
            }
        }
    }

    /// Read until `WouldBlock`/EOF, appending to `rbuf`. EOF with a
    /// clean buffer is a normal goodbye; EOF mid-frame just drops the
    /// partial bytes — there is no one to answer.
    fn fill(&mut self, scratch: &mut [u8]) {
        loop {
            match self.conn.read(scratch) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.rbuf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Extract complete frames from `rbuf` and run them through the
    /// service, stopping early on backpressure or a connection-ending
    /// control verdict. Returns `true` if the service asked for a
    /// reactor-wide shutdown.
    fn process<S: FrameService<Conn = C>>(
        &mut self,
        service: &S,
        config: &NetConfig,
        stats: &ReactorStats,
    ) -> bool {
        let mut pos = 0;
        let mut shutdown = false;
        while !self.closing && !self.dead {
            if self.pending() > config.write_budget {
                // Backpressure: leave the rest of the input buffered
                // until the peer drains our replies.
                break;
            }
            let Some(header) = self.rbuf.get(pos..pos + 4) else {
                break;
            };
            let len = u32::from_le_bytes(header.try_into().expect("4 bytes")) as usize;
            if len > config.max_frame_len {
                // An insane length prefix: framing is unrecoverable.
                self.dead = true;
                break;
            }
            let Some(payload) = self.rbuf.get(pos + 4..pos + 4 + len) else {
                break;
            };
            stats.frame_in();
            // The emitter only collects: the write budget below judges
            // the whole reply before any of it is queued.
            let mut frames = Vec::new();
            let control = service.handle_frame(&mut self.state, payload, &mut |frame| {
                frames.push(frame);
                Ok(())
            });
            pos += 4 + len;
            let Ok(control) = control else {
                self.dead = true;
                break;
            };
            let reply_bytes: usize = frames.iter().map(|f| 4 + f.len()).sum();
            if reply_bytes > config.write_budget {
                // The reply can never fit the budget: substitute the
                // typed busy frame instead of buffering unboundedly.
                // Note the request itself already ran — the protocol
                // marks ERR_BUSY retryable precisely because requests
                // that *mutate* are journaled/idempotent upstream.
                let busy = service.busy_payload();
                self.queue_frame(&busy);
                stats.busy_rejection();
                stats.frames_out(1);
            } else {
                for frame in &frames {
                    self.queue_frame(frame);
                }
                stats.frames_out(frames.len() as u64);
            }
            if control == Control::Shutdown {
                self.closing = true;
                shutdown = true;
            }
        }
        self.rbuf.drain(..pos);
        shutdown
    }
}

/// Accept every connection the listener has ready. Connections beyond
/// `max_conns` (measured across all loops via the shared stats gauge)
/// are sent the busy frame best-effort and dropped.
fn accept_ready<S: FrameService>(
    listener: &Listener,
    conns: &mut Vec<ConnState<S::Conn>>,
    service: &S,
    config: &NetConfig,
    stats: &ReactorStats,
) {
    loop {
        match listener.accept() {
            Ok(conn) => {
                if stats.open_connections() >= config.max_conns {
                    stats.conn_rejected();
                    let _ = conn.set_nonblocking(true);
                    let mut rejected: ConnState<S::Conn> = ConnState::new(conn);
                    rejected.queue_frame(&service.busy_payload());
                    rejected.flush();
                    // Dropped regardless of how much was written: an
                    // overloaded reactor spends no further effort here.
                    continue;
                }
                if conn.set_nonblocking(true).is_err() {
                    continue;
                }
                stats.conn_opened();
                conns.push(ConnState::new(conn));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Run one reactor loop until `shutdown` is observed (set by any loop
/// or externally). Call from several threads with the same listener,
/// service, config, shutdown flag, and stats to serve on several
/// cores. The listener is switched to nonblocking mode on entry.
///
/// # Errors
/// Setup failures (listener options) and poll(2) failures; per-
/// connection i/o errors just drop the connection.
pub fn serve_loop<S: FrameService>(
    listener: &Listener,
    service: &S,
    config: &NetConfig,
    shutdown: &AtomicBool,
    stats: &ReactorStats,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let tick_ms = i32::try_from(config.tick.as_millis().clamp(1, 60_000)).expect("clamped");
    let mut conns: Vec<ConnState<S::Conn>> = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];
    let mut fds: Vec<PollFd> = Vec::new();
    let mut draining: u32 = 0;
    loop {
        let shutting_down = shutdown.load(Ordering::SeqCst);
        if shutting_down {
            // Stop accepting; flush what's queued, then leave. A peer
            // that won't drain its socket gets DRAIN_TICKS of grace.
            for c in &mut conns {
                c.closing = true;
                if c.pending() == 0 {
                    c.dead = true;
                }
            }
            conns.retain(|c| {
                if c.dead {
                    stats.conn_closed();
                }
                !c.dead
            });
            draining += 1;
            if conns.is_empty() || draining > DRAIN_TICKS {
                for _ in &conns {
                    stats.conn_closed();
                }
                return Ok(());
            }
        }
        fds.clear();
        // Slot 0 is the listener (ignored while shutting down).
        fds.push(PollFd {
            fd: listener.as_raw_fd(),
            events: if shutting_down { 0 } else { POLLIN },
            revents: 0,
        });
        for c in &conns {
            let mut events = 0i16;
            if !c.closing && c.pending() <= config.write_budget {
                events |= POLLIN;
            }
            if c.pending() > 0 {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd: c.conn.as_raw_fd(),
                events,
                revents: 0,
            });
        }
        poll_fds(&mut fds, tick_ms)?;
        if fds[0].revents & POLLIN != 0 {
            accept_ready(listener, &mut conns, service, config, stats);
        }
        let mut ask_shutdown = false;
        // `fds[1..]` lines up with the `conns` the array was built
        // from; connections accepted above are polled next tick.
        for (c, fd) in conns.iter_mut().zip(&fds[1..]) {
            if fd.revents & (POLLERR | POLLNVAL) != 0 {
                c.dead = true;
                continue;
            }
            if fd.revents & (POLLIN | POLLOUT | POLLHUP) != 0 {
                c.last_activity = Instant::now();
            }
            if fd.revents & POLLOUT != 0 {
                c.flush();
            }
            if fd.revents & (POLLIN | POLLHUP) != 0 && !c.dead && !c.closing {
                c.fill(&mut scratch);
                ask_shutdown |= c.process(service, config, stats);
                // Opportunistic first write: most replies fit the
                // socket buffer, saving a poll round trip.
                c.flush();
            }
        }
        if ask_shutdown {
            shutdown.store(true, Ordering::SeqCst);
        }
        if let Some(limit) = config.idle_timeout {
            // Reap wedged/abandoned connections: no inbound bytes and
            // no writable progress for a whole idle window. A client
            // mid-conversation always trips POLLIN; a slow reader of a
            // big streamed reply always trips POLLOUT — only a truly
            // silent socket ages out.
            for c in &mut conns {
                if !c.dead && c.last_activity.elapsed() >= limit {
                    c.dead = true;
                }
            }
        }
        conns.retain(|c| {
            if c.dead {
                stats.conn_closed();
            }
            !c.dead
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{connect, Endpoint};
    use std::sync::atomic::AtomicBool;

    /// Echoes each payload back; `b"quit"` shuts the reactor down,
    /// `b"big"` answers with a 1 MiB frame (for budget tests).
    struct Echo;

    impl FrameService for Echo {
        type Conn = ();

        fn handle_frame(
            &self,
            _conn: &mut (),
            payload: &[u8],
            emit: &mut dyn FnMut(Vec<u8>) -> io::Result<()>,
        ) -> io::Result<Control> {
            match payload {
                b"quit" => {
                    emit(b"bye".to_vec())?;
                    return Ok(Control::Shutdown);
                }
                b"big" => emit(vec![0xAB; 1 << 20])?,
                other => emit(other.to_vec())?,
            }
            Ok(Control::Continue)
        }

        fn busy_payload(&self) -> Vec<u8> {
            b"BUSY".to_vec()
        }
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    }

    fn read_exact_frame(conn: &mut Conn) -> Vec<u8> {
        let mut header = [0u8; 4];
        conn.read_exact(&mut header).unwrap();
        let len = u32::from_le_bytes(header) as usize;
        let mut payload = vec![0u8; len];
        conn.read_exact(&mut payload).unwrap();
        payload
    }

    fn spawn_reactor(
        config: NetConfig,
    ) -> (
        Endpoint,
        std::sync::Arc<(AtomicBool, ReactorStats)>,
        std::thread::JoinHandle<()>,
    ) {
        let requested = Endpoint::Tcp("127.0.0.1:0".to_string());
        let listener = Listener::bind(&requested).unwrap();
        let local = listener.local_endpoint(&requested);
        let shared = std::sync::Arc::new((AtomicBool::new(false), ReactorStats::new()));
        let state = std::sync::Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            serve_loop(&listener, &Echo, &config, &state.0, &state.1).unwrap();
        });
        (local, shared, handle)
    }

    #[test]
    fn echoes_frames_split_across_arbitrary_writes() {
        let (endpoint, shared, handle) = spawn_reactor(NetConfig::default());
        let mut conn = connect(&endpoint).unwrap();
        // Dribble two frames one byte at a time: the frame-boundary
        // state machine must reassemble them exactly.
        let mut bytes = frame(b"hello");
        bytes.extend_from_slice(&frame(b"world"));
        for b in &bytes {
            conn.write_all(std::slice::from_ref(b)).unwrap();
            conn.flush().unwrap();
        }
        assert_eq!(read_exact_frame(&mut conn), b"hello");
        assert_eq!(read_exact_frame(&mut conn), b"world");
        // Batched frames in one write also work.
        let mut batch = Vec::new();
        for i in 0..10u8 {
            batch.extend_from_slice(&frame(&[i; 3]));
        }
        conn.write_all(&batch).unwrap();
        for i in 0..10u8 {
            assert_eq!(read_exact_frame(&mut conn), [i; 3]);
        }
        conn.write_all(&frame(b"quit")).unwrap();
        assert_eq!(read_exact_frame(&mut conn), b"bye");
        handle.join().unwrap();
        let counters = shared.1.snapshot();
        assert_eq!(counters.frames_in, 13);
        assert_eq!(counters.frames_out, 13);
        assert_eq!(counters.open_connections, 0);
        assert_eq!(counters.busy_rejections, 0);
    }

    #[test]
    fn oversized_reply_becomes_busy_frame() {
        let config = NetConfig {
            write_budget: 1024,
            ..NetConfig::default()
        };
        let (endpoint, shared, handle) = spawn_reactor(config);
        let mut conn = connect(&endpoint).unwrap();
        conn.write_all(&frame(b"big")).unwrap();
        assert_eq!(read_exact_frame(&mut conn), b"BUSY");
        // The connection survives and keeps serving small replies.
        conn.write_all(&frame(b"still here")).unwrap();
        assert_eq!(read_exact_frame(&mut conn), b"still here");
        conn.write_all(&frame(b"quit")).unwrap();
        assert_eq!(read_exact_frame(&mut conn), b"bye");
        handle.join().unwrap();
        assert_eq!(shared.1.snapshot().busy_rejections, 1);
    }

    #[test]
    fn connection_cap_rejects_with_busy() {
        let config = NetConfig {
            max_conns: 1,
            ..NetConfig::default()
        };
        let (endpoint, shared, handle) = spawn_reactor(config);
        let mut first = connect(&endpoint).unwrap();
        first.write_all(&frame(b"ping")).unwrap();
        assert_eq!(read_exact_frame(&mut first,), b"ping");
        // Second connection: over the cap, gets BUSY and EOF.
        let mut second = connect(&endpoint).unwrap();
        assert_eq!(read_exact_frame(&mut second), b"BUSY");
        let mut rest = Vec::new();
        assert_eq!(second.read_to_end(&mut rest).unwrap(), 0);
        // The first connection is unaffected.
        first.write_all(&frame(b"quit")).unwrap();
        assert_eq!(read_exact_frame(&mut first), b"bye");
        handle.join().unwrap();
        assert_eq!(shared.1.snapshot().busy_rejections, 1);
    }

    #[test]
    fn insane_length_prefix_kills_only_that_connection() {
        let (endpoint, _shared, handle) = spawn_reactor(NetConfig::default());
        let mut evil = connect(&endpoint).unwrap();
        evil.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let mut rest = Vec::new();
        // The reactor drops the connection without reading the
        // announced 4 GiB.
        assert_eq!(evil.read_to_end(&mut rest).unwrap(), 0);
        let mut fine = connect(&endpoint).unwrap();
        fine.write_all(&frame(b"alive")).unwrap();
        assert_eq!(read_exact_frame(&mut fine), b"alive");
        fine.write_all(&frame(b"quit")).unwrap();
        assert_eq!(read_exact_frame(&mut fine), b"bye");
        handle.join().unwrap();
    }

    #[test]
    fn wedged_idle_client_is_reaped_and_active_clients_survive() {
        let config = NetConfig {
            tick: Duration::from_millis(10),
            idle_timeout: Some(Duration::from_millis(400)),
            ..NetConfig::default()
        };
        let (endpoint, shared, handle) = spawn_reactor(config);
        // A wedged client: sends half a frame header, then nothing.
        let mut wedged = connect(&endpoint).unwrap();
        wedged.write_all(&[0x09, 0x00]).unwrap();
        // An active client keeps a slow but steady conversation going
        // across several idle windows — it must never be reaped. The
        // chatter period sits far inside the idle window (8×) so a
        // loaded CI host stretching one sleep cannot age it out.
        let mut active = connect(&endpoint).unwrap();
        for i in 0..16u8 {
            std::thread::sleep(Duration::from_millis(50));
            active.write_all(&frame(&[i])).unwrap();
            assert_eq!(read_exact_frame(&mut active), [i]);
        }
        // By now the wedged connection is long past the idle window:
        // the reactor must have dropped it (EOF on our side).
        let mut rest = Vec::new();
        assert_eq!(wedged.read_to_end(&mut rest).unwrap(), 0, "reaped");
        active.write_all(&frame(b"quit")).unwrap();
        assert_eq!(read_exact_frame(&mut active), b"bye");
        handle.join().unwrap();
        assert_eq!(shared.1.snapshot().open_connections, 0);
    }

    #[test]
    fn each_connection_carries_its_own_state() {
        /// Answers every frame with how many frames its connection has
        /// sent so far; `b"quit"` shuts the reactor down.
        struct Counter;

        impl FrameService for Counter {
            type Conn = u8;

            fn handle_frame(
                &self,
                seen: &mut u8,
                payload: &[u8],
                emit: &mut dyn FnMut(Vec<u8>) -> io::Result<()>,
            ) -> io::Result<Control> {
                *seen += 1;
                emit(vec![*seen])?;
                Ok(if payload == b"quit" {
                    Control::Shutdown
                } else {
                    Control::Continue
                })
            }

            fn busy_payload(&self) -> Vec<u8> {
                b"BUSY".to_vec()
            }
        }

        let requested = Endpoint::Tcp("127.0.0.1:0".to_string());
        let listener = Listener::bind(&requested).unwrap();
        let local = listener.local_endpoint(&requested);
        let shutdown = AtomicBool::new(false);
        let stats = ReactorStats::new();
        let config = NetConfig::default();
        // Checked after the reactor is down: a failed check inside the
        // scope would leave the loop serving.
        let (interleaved, fresh) = std::thread::scope(|scope| {
            scope.spawn(|| serve_loop(&listener, &Counter, &config, &shutdown, &stats).unwrap());
            let ask = |conn: &mut Conn, payload: &[u8]| {
                conn.write_all(&frame(payload)).unwrap();
                read_exact_frame(conn)[0]
            };
            let mut a = connect(&local).unwrap();
            let mut b = connect(&local).unwrap();
            let interleaved = [
                ask(&mut a, b"x"),
                ask(&mut a, b"x"),
                ask(&mut b, b"x"),
                ask(&mut a, b"x"),
            ];
            drop(a);
            let mut c = connect(&local).unwrap();
            (interleaved, ask(&mut c, b"quit"))
        });
        // Two connections each count only their own frames, and a new
        // connection starts from the default: a departed connection's
        // state leaves with it.
        assert_eq!(interleaved, [1, 2, 1, 3]);
        assert_eq!(fresh, 1);
        assert_eq!(stats.snapshot().open_connections, 0);
    }

    #[test]
    fn many_loops_one_listener() {
        let requested = Endpoint::Tcp("127.0.0.1:0".to_string());
        let listener = Listener::bind(&requested).unwrap();
        let local = listener.local_endpoint(&requested);
        let shutdown = AtomicBool::new(false);
        let stats = ReactorStats::new();
        let config = NetConfig::default();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| serve_loop(&listener, &Echo, &config, &shutdown, &stats).unwrap());
            }
            let mut clients: Vec<Conn> = (0..8).map(|_| connect(&local).unwrap()).collect();
            for (i, c) in clients.iter_mut().enumerate() {
                c.write_all(&frame(format!("c{i}").as_bytes())).unwrap();
            }
            for (i, c) in clients.iter_mut().enumerate() {
                assert_eq!(read_exact_frame(c), format!("c{i}").as_bytes());
            }
            clients[0].write_all(&frame(b"quit")).unwrap();
            assert_eq!(read_exact_frame(&mut clients[0]), b"bye");
        });
        assert_eq!(stats.snapshot().open_connections, 0);
    }
}
