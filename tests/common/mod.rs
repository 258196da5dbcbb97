//! Helpers shared by the socket end-to-end tests.

// Each test binary compiles this module and uses only part of it.
#![allow(dead_code)]

use dp_server::{Client, Endpoint};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// How long the guard waits on one endpoint: a live server answers
/// `Shutdown` at once; a stopped TCP listener accepts and never answers.
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(2);

/// Stops the servers of a failing socket test.
///
/// The socket tests run `serve` on a `std::thread::scope` thread and
/// assert on the test thread, sending `Shutdown` last. A failing
/// assertion unwinds into the scope, which joins the server thread
/// before the panic propagates, so without a stop request the test
/// would hang instead of failing. Dropped during a panic, this guard
/// raises its stop flags and sends `Shutdown` to each endpoint in order
/// (a coordinator before its workers); dropped normally, it does
/// nothing.
///
/// Create it right after spawning the servers and before connecting any
/// client: locals drop in reverse order, so the test's own connections
/// close first and free a one-worker server to accept the guard's.
pub struct ShutdownOnPanic<'a> {
    endpoints: Vec<Endpoint>,
    flags: Vec<&'a AtomicBool>,
}

impl<'a> ShutdownOnPanic<'a> {
    pub fn new(endpoints: &[&Endpoint]) -> Self {
        Self {
            endpoints: endpoints.iter().map(|&e| e.clone()).collect(),
            flags: Vec::new(),
        }
    }

    /// Also raise `stop` on panic: the flag an in-test fake server polls.
    pub fn raising(mut self, stop: &'a AtomicBool) -> Self {
        self.flags.push(stop);
        self
    }
}

impl Drop for ShutdownOnPanic<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        for stop in &self.flags {
            stop.store(true, Ordering::SeqCst);
        }
        for endpoint in &self.endpoints {
            // A server that already stopped refuses the connection or
            // lets the reply time out; either way the next one is tried.
            if let Ok(client) = Client::connect_timeout(endpoint, SHUTDOWN_TIMEOUT) {
                let _ = client.set_read_timeout(Some(SHUTDOWN_TIMEOUT));
                let _ = client.shutdown();
            }
        }
    }
}
