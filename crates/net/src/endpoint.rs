//! Transport glue: endpoints, connections, listeners — TCP or unix.
//!
//! Lifted verbatim from `dp-server` (which re-exports these types, so
//! its public API is unchanged) and extended with the knobs the
//! reactor needs: nonblocking mode and write timeouts.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Where a server listens / a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// `tcp:HOST:PORT`.
    Tcp(String),
    /// `unix:PATH`.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parse `tcp:HOST:PORT` or `unix:PATH`.
    ///
    /// # Errors
    /// A human-readable message on any other shape.
    pub fn parse(text: &str) -> Result<Self, String> {
        if let Some(addr) = text.strip_prefix("tcp:") {
            Ok(Self::Tcp(addr.to_string()))
        } else if let Some(path) = text.strip_prefix("unix:") {
            Ok(Self::Unix(PathBuf::from(path)))
        } else {
            Err(format!(
                "endpoint '{text}' must be tcp:HOST:PORT or unix:PATH"
            ))
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Tcp(addr) => write!(f, "tcp:{addr}"),
            Self::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// A connected byte stream of either family.
#[derive(Debug)]
pub enum Conn {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A unix-socket connection.
    Unix(UnixStream),
}

impl Conn {
    /// Set (or clear) the read timeout of the underlying socket. A
    /// blocked read past the deadline fails with `WouldBlock`/`TimedOut`
    /// instead of hanging forever.
    ///
    /// # Errors
    /// Propagates socket option failures.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_read_timeout(timeout),
            Self::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// Set (or clear) the write timeout of the underlying socket — the
    /// other half of the wedged-peer guard: a peer that stops draining
    /// its socket fails our blocked write within the deadline instead
    /// of pinning the writing thread forever.
    ///
    /// # Errors
    /// Propagates socket option failures.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_write_timeout(timeout),
            Self::Unix(s) => s.set_write_timeout(timeout),
        }
    }

    /// Switch the socket between blocking and nonblocking mode (the
    /// reactor runs every accepted connection nonblocking).
    ///
    /// # Errors
    /// Propagates socket option failures.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_nonblocking(nonblocking),
            Self::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Self::Tcp(s) => s.read(buf),
            Self::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Self::Tcp(s) => s.write(buf),
            Self::Unix(s) => s.write(buf),
        }
    }

    /// Forwarded so a frame's length prefix and payload leave in one
    /// `writev` (the default would write only the first slice).
    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Self::Tcp(s) => s.write_vectored(bufs),
            Self::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.flush(),
            Self::Unix(s) => s.flush(),
        }
    }
}

impl AsRawFd for Conn {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Self::Tcp(s) => s.as_raw_fd(),
            Self::Unix(s) => s.as_raw_fd(),
        }
    }
}

/// A bound listening socket of either family.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A unix-socket listener.
    Unix(UnixListener),
}

impl Listener {
    /// Bind to an endpoint. For unix endpoints a stale socket file from
    /// a previous run is removed first.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind(endpoint: &Endpoint) -> io::Result<Self> {
        match endpoint {
            Endpoint::Tcp(addr) => TcpListener::bind(addr).map(Self::Tcp),
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                UnixListener::bind(path).map(Self::Unix)
            }
        }
    }

    /// Accept one connection (blocking unless the listener is
    /// nonblocking, in which case `WouldBlock` surfaces).
    ///
    /// # Errors
    /// Propagates accept failures.
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            Self::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(nodelay(s))),
            Self::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }

    /// Switch the listener between blocking and nonblocking accepts.
    ///
    /// # Errors
    /// Propagates socket option failures.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Self::Tcp(l) => l.set_nonblocking(nonblocking),
            Self::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }

    /// The endpoint actually bound, given the endpoint that was asked
    /// for. For `tcp:HOST:0` this carries the kernel-assigned port, so
    /// callers can connect.
    #[must_use]
    pub fn local_endpoint(&self, requested: &Endpoint) -> Endpoint {
        match self {
            Self::Tcp(l) => match l.local_addr() {
                Ok(addr) => Endpoint::Tcp(addr.to_string()),
                Err(_) => requested.clone(),
            },
            Self::Unix(_) => requested.clone(),
        }
    }
}

impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Self::Tcp(l) => l.as_raw_fd(),
            Self::Unix(l) => l.as_raw_fd(),
        }
    }
}

/// Disable Nagle on a fresh TCP stream (best-effort). The protocol
/// writes a small length header followed by the payload and then waits
/// for the reply; with Nagle on, the second write stalls behind the
/// peer's delayed ACK (~40 ms per round trip on loopback).
fn nodelay(stream: TcpStream) -> TcpStream {
    let _ = stream.set_nodelay(true);
    stream
}

/// Connect to an endpoint (blocking).
///
/// # Errors
/// Propagates connect failures.
pub fn connect(endpoint: &Endpoint) -> io::Result<Conn> {
    match endpoint {
        Endpoint::Tcp(addr) => TcpStream::connect(addr).map(|s| Conn::Tcp(nodelay(s))),
        Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
    }
}

/// [`connect`] with a bound on the TCP connect itself: a black-holed
/// host (SYNs dropped, nothing answers) fails within `timeout` instead
/// of the kernel's connect timeout (which can be minutes). Unix-socket
/// connects are local and never block meaningfully; name resolution for
/// TCP endpoints still runs unbounded before the timed connect.
///
/// # Errors
/// Propagates connect failures; `InvalidInput` when the host resolves
/// to no addresses.
pub fn connect_with_timeout(endpoint: &Endpoint, timeout: Duration) -> io::Result<Conn> {
    match endpoint {
        Endpoint::Tcp(addr) => {
            use std::net::ToSocketAddrs;
            let mut last = None;
            for resolved in addr.to_socket_addrs()? {
                match TcpStream::connect_timeout(&resolved, timeout) {
                    Ok(stream) => return Ok(Conn::Tcp(nodelay(stream))),
                    Err(e) => last = Some(e),
                }
            }
            Err(last.unwrap_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("'{addr}' resolved to no addresses"),
                )
            }))
        }
        Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_roundtrip() {
        let tcp = Endpoint::parse("tcp:127.0.0.1:9000").unwrap();
        assert_eq!(tcp, Endpoint::Tcp("127.0.0.1:9000".to_string()));
        assert_eq!(tcp.to_string(), "tcp:127.0.0.1:9000");
        let unix = Endpoint::parse("unix:/tmp/dp.sock").unwrap();
        assert_eq!(unix, Endpoint::Unix(PathBuf::from("/tmp/dp.sock")));
        assert_eq!(unix.to_string(), "unix:/tmp/dp.sock");
        assert!(Endpoint::parse("http://x").is_err());
    }

    #[test]
    fn tcp_bind_reports_assigned_port() {
        let requested = Endpoint::Tcp("127.0.0.1:0".to_string());
        let listener = Listener::bind(&requested).unwrap();
        let local = listener.local_endpoint(&requested);
        match &local {
            Endpoint::Tcp(addr) => assert!(!addr.ends_with(":0"), "got {addr}"),
            Endpoint::Unix(_) => panic!("tcp stayed tcp"),
        }
        // And the reported endpoint is connectable.
        connect(&local).unwrap();
    }
}
