//! Real `dp-server` processes: spawn from the release binary, wait for
//! the listen banner, read peak memory, shut down — and kill every
//! child and delete every temp directory on any other exit path.

use crate::util::{digest, Ops};
use dp_core::sketcher::SketcherSpec;
use dp_server::{Client, ClientError, Endpoint};
use std::io;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Engine tuning knobs that must never reach a server process: the
/// benchmark measures the shipped defaults.
pub const TUNING_ENV: [&str; 3] = ["DP_THREADS", "DP_TILE", "DP_KERNEL"];

/// Read timeout on every benchmark client: a wedged server becomes a
/// counted `timeout` failure, not a hung run.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(20);

struct ServerProc {
    child: Child,
    /// Held open so the server's closing banner never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

/// A set of server processes sharing one scratch directory. Dropping a
/// fleet kills whatever still runs and removes the directory, so a
/// failed check or a panic leaves no process and no file behind.
pub struct Fleet {
    bin: PathBuf,
    dir: PathBuf,
    procs: Vec<ServerProc>,
}

impl Fleet {
    /// A fleet whose scratch files live in `dir` (created empty), with
    /// the shared spec written to `dir/spec.json`.
    pub fn new(bin: &Path, dir: PathBuf, spec: &SketcherSpec) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let fleet = Self {
            bin: bin.to_path_buf(),
            dir,
            procs: Vec::new(),
        };
        std::fs::write(fleet.spec_path(), spec.to_json())
            .map_err(|e| format!("write spec: {e}"))?;
        Ok(fleet)
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    pub fn spec_path(&self) -> PathBuf {
        self.path("spec.json")
    }

    /// Start one server and return the endpoint its banner reports.
    /// Blocks until the server is listening.
    pub fn spawn(&mut self, args: &[String]) -> Result<Endpoint, String> {
        let mut cmd = Command::new(&self.bin);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for var in TUNING_ENV {
            cmd.env_remove(var);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // Registered before the banner read, so a server that dies or
        // hangs at start-up is still reaped by Drop.
        self.procs.push(ServerProc {
            child,
            _stdout: BufReader::new(stdout),
        });
        let proc = self.procs.last_mut().expect("just pushed");
        let mut banner = String::new();
        proc._stdout
            .read_line(&mut banner)
            .map_err(|e| format!("read server banner: {e}"))?;
        parse_banner(&banner)
    }

    /// Sum of peak resident memory (`VmHWM`) over the live servers, MiB.
    pub fn rss_peak_mb(&self) -> f64 {
        self.procs
            .iter()
            .filter_map(|p| vm_hwm_kb(p.child.id()))
            .sum::<u64>() as f64
            / 1024.0
    }

    /// Ask the server behind `client` to exit (a coordinator takes its
    /// workers down with it), then reap every process.
    pub fn shutdown(mut self, client: Client) {
        let _ = client.shutdown();
        let deadline = Instant::now() + Duration::from_secs(10);
        for p in &mut self.procs {
            while Instant::now() < deadline {
                match p.child.try_wait() {
                    Ok(Some(_)) | Err(_) => break,
                    Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
        }
        // Drop kills and reaps any straggler and removes the directory.
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for p in &mut self.procs {
            if matches!(p.child.try_wait(), Ok(None)) {
                let _ = p.child.kill();
            }
            let _ = p.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `dp-server: serving protocol v5 on tcp:127.0.0.1:41234 (...)` or
/// `dp-server: coordinating 2 worker server(s) on tcp:... (...)`.
fn parse_banner(line: &str) -> Result<Endpoint, String> {
    let text = line
        .split(" on ")
        .nth(1)
        .and_then(|rest| rest.split(" (").next())
        .ok_or_else(|| format!("server did not start (banner: {:?})", line.trim()))?;
    Endpoint::parse(text.trim())
}

fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// A client connection that is replaced after any failure that may
/// leave its framing out of step. No operation is ever retried: the
/// failed one is counted, the next one uses the fresh connection.
pub struct Conn {
    endpoint: Endpoint,
    client: Option<Client>,
}

impl Conn {
    pub fn new(endpoint: Endpoint, client: Client) -> Self {
        Self {
            endpoint,
            client: Some(client),
        }
    }

    pub fn call<T>(
        &mut self,
        f: impl FnOnce(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let Some(client) = self.client.as_mut() else {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::NotConnected,
                "connection lost earlier",
            )));
        };
        let result = f(client);
        if matches!(&result, Err(e) if !matches!(e, ClientError::Remote { .. })) {
            self.client = connect(&self.endpoint).ok();
        }
        result
    }

    /// Shut the fleet down through this connection (or kill it when the
    /// connection is gone).
    pub fn shutdown(mut self, fleet: Fleet) {
        match self.client.take() {
            Some(client) => fleet.shutdown(client),
            None => drop(fleet),
        }
    }
}

/// One timed exchange: when it ran and what came back.
pub struct Call<T> {
    pub start: Instant,
    pub end: Instant,
    pub reply: Option<T>,
}

impl<T> Call<T> {
    pub fn run<R>(
        conn: &mut Conn,
        ops: &mut Ops,
        kind: &'static str,
        f: impl FnOnce(&mut Client) -> Result<R, ClientError>,
        map: impl FnOnce(R) -> T,
    ) -> Self {
        let start = Instant::now();
        let result = conn.call(f);
        let end = Instant::now();
        Self {
            start,
            end,
            reply: ops.record(kind, result).map(map),
        }
    }

    pub fn took(&self) -> Duration {
        self.end - self.start
    }
}

/// A full or subset matrix reply: party-id echo and value digest.
pub type Matrix = (Vec<u64>, u64);

/// Keep a matrix reply as its party echo and value digest.
pub fn matrix((parties, values): (Vec<u64>, Vec<f64>)) -> Matrix {
    (parties, digest(&values))
}

/// Connect a benchmark client with the standard read timeout.
pub fn connect(endpoint: &Endpoint) -> Result<Client, String> {
    let client = Client::connect(endpoint).map_err(|e| format!("connect {endpoint}: {e}"))?;
    client
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .map_err(|e| format!("set timeout: {e}"))?;
    Ok(client)
}
