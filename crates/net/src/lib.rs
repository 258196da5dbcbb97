//! # dp-net — the nonblocking serving layer
//!
//! A hand-rolled event loop (no crates.io, matching the workspace's
//! no-deps discipline) for **length-prefixed frame protocols** over TCP
//! and unix sockets. The crate knows nothing about the sketch protocol
//! itself: it moves `u32 LE length + payload` frames in and out of
//! per-connection buffers and hands complete payloads to a
//! [`FrameService`] — `dp-server` supplies the service that decodes
//! `DPRQ`, asks the engine, and encodes `DPRS`. A service keeps what a
//! connection must remember between frames in its own per-connection
//! state ([`FrameService::Conn`], created on accept and dropped with the
//! connection) and answers through an emitter, so the same service can
//! also be driven by a blocking loop that writes each frame to the
//! socket as it is produced.
//!
//! Three pieces:
//!
//! * [`endpoint`] — [`Endpoint`] / [`Conn`] / [`Listener`]: the
//!   TCP-or-unix transport glue (moved here from `dp-server`, which
//!   re-exports it for compatibility).
//! * [`reactor`] — [`serve_loop`]: one poll(2)-driven event loop over a
//!   shared nonblocking listener plus the connections it accepted.
//!   Run several loops against one listener for multi-core serving;
//!   each loop owns its connections outright, so no connection state
//!   is ever shared or locked.
//! * [`stats`] — [`ReactorStats`]: atomic counters (open connections,
//!   frames in/out, busy rejections) shared across loops and exported
//!   through `Server::stats()`.
//!
//! ## Backpressure and overload
//!
//! Every connection carries a write buffer bounded by
//! [`NetConfig::write_budget`]. A connection whose buffer is above the
//! budget stops being *read* (its `POLLIN` interest is dropped) until
//! the peer drains it — a slow reader throttles only itself. A single
//! reply too large to ever fit the budget is replaced by the service's
//! [`FrameService::busy_payload`] (the sketch protocol's `ERR_BUSY`),
//! and a connection arriving past [`NetConfig::max_conns`] is sent the
//! same frame best-effort and dropped. Overloaded requests are **not**
//! executed half-way: the busy substitution happens before any bytes
//! of the oversized reply are queued.

pub mod endpoint;
pub mod reactor;
pub mod stats;
mod sys;

pub use endpoint::{connect, connect_with_timeout, Conn, Endpoint, Listener};
pub use reactor::{serve_loop, Control, FrameService, NetConfig};
pub use stats::{ReactorCounters, ReactorStats};
