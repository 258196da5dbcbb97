//! Everything a run needs, derived from `--seed` alone: the shared
//! sketch spec, the parties' raw vectors, their pre-sketched releases,
//! and the store image a server is preloaded with.

use crate::procs::Fleet;
use crate::util::micros;
use dp_core::config::SketchConfig;
use dp_core::release::Release;
use dp_core::sketcher::{AnySketcher, Construction, PrivateSketcher, SketcherSpec};
use dp_core::KernelId;
use dp_engine::SketchStore;
use dp_hashing::Seed;
use dp_noise::gaussian::Gaussian;
use dp_server::{Client, Endpoint};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Input dimension of every party vector.
pub const D: usize = 256;

/// Generation stamped into preload snapshots.
const PRELOAD_GENERATION: u64 = 1;

/// One run's settings, from the command line.
#[derive(Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub server_bin: PathBuf,
    /// `threads` (the shipped default) or `evloop` (self-test only).
    pub serve_mode: String,
    /// `--workers` for every server: the host's CPU count, the default.
    pub workers: usize,
    /// Scratch root inside the checkout; removed at exit.
    pub tmp: PathBuf,
}

impl Ctx {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Run `once` back to back (at least once) until another run would
    /// overshoot the time budget.
    pub fn repeat<T>(
        &self,
        mut once: impl FnMut(usize) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let begin = Instant::now();
        let mut runs = Vec::new();
        loop {
            runs.push(once(runs.len())?);
            let per_run = begin.elapsed() / runs.len() as u32;
            if begin.elapsed() + per_run > self.budget() {
                return Ok(runs);
            }
        }
    }

    /// A fresh scratch directory for one fleet.
    pub fn dir(&self, name: &str) -> PathBuf {
        self.tmp.join(name)
    }

    /// Arguments for a plain (non-coordinator) server on an ephemeral
    /// loopback port.
    pub fn plain_args(&self, fleet: &Fleet) -> Vec<String> {
        vec![
            "--listen".into(),
            "tcp:127.0.0.1:0".into(),
            "--spec".into(),
            fleet.spec_path().display().to_string(),
            "--workers".into(),
            self.workers.to_string(),
            "--serve-mode".into(),
            self.serve_mode.clone(),
        ]
    }
}

/// The benchmark's spec: private SJLT with the Note 5 noise rule,
/// d = 256, α = 0.3, β = 0.1, ε = 1 (k = 208), V1 scalar kernel.
pub fn spec(seed: u64) -> SketcherSpec {
    let config = SketchConfig::builder()
        .input_dim(D)
        .alpha(0.3)
        .beta(0.1)
        .epsilon(1.0)
        .build()
        .expect("the benchmark config is valid");
    SketcherSpec::new(
        Construction::SjltAuto,
        config,
        Seed::new(seed).child("transform"),
    )
    .with_kernel(KernelId::V1Scalar)
}

/// The parties of one run: raw vectors (standard normal coordinates),
/// the sketcher every party builds from the spec, and the releases
/// sketched ahead of the timed phase.
pub struct Corpus {
    pub spec: SketcherSpec,
    pub sketcher: AnySketcher,
    pub vectors: Vec<Vec<f64>>,
    /// Releases for parties `0..releases.len()`.
    pub releases: Vec<Release>,
    /// Per-release `AnySketcher::sketch` time, µs.
    pub sketch_us: Vec<f64>,
    noise: Seed,
}

impl Corpus {
    /// `parties` vectors; the first `sketched` are released up front,
    /// one timed `AnySketcher::sketch` call each.
    pub fn new(seed: u64, parties: usize, sketched: usize) -> Self {
        let spec = spec(seed);
        let sketcher = spec.build().expect("the benchmark spec builds");
        let normal = Gaussian::new(1.0).expect("unit sigma");
        let vectors_seed = Seed::new(seed).child("vectors");
        let vectors: Vec<Vec<f64>> = (0..parties as u64)
            .map(|p| {
                let mut v = vec![0.0; D];
                normal.fill(&mut v, &mut vectors_seed.index(p).rng());
                v
            })
            .collect();
        let mut corpus = Self {
            spec,
            sketcher,
            vectors,
            releases: Vec::with_capacity(sketched),
            sketch_us: Vec::with_capacity(sketched),
            noise: Seed::new(seed).child("noise"),
        };
        for p in 0..sketched {
            let started = Instant::now();
            let release = corpus.release(p);
            corpus.sketch_us.push(micros(started.elapsed()));
            corpus.releases.push(release);
        }
        corpus
    }

    /// Party `p`'s release: its vector sketched with its own noise seed.
    pub fn release(&self, p: usize) -> Release {
        Release {
            party_id: p as u64,
            sketch: self
                .sketcher
                .sketch(&self.vectors[p], self.noise.index(p as u64))
                .expect("sketch a benchmark vector"),
        }
    }

    /// A store holding the first `rows` releases, in party order.
    pub fn store(&self, rows: usize) -> SketchStore {
        let mut store = SketchStore::with_spec(self.spec.clone()).expect("spec store");
        for r in &self.releases[..rows] {
            store.ingest(r).expect("preload ingest");
        }
        store
    }

    /// The snapshot image a server is preloaded with.
    pub fn preload_image(&self, rows: usize) -> Vec<u8> {
        self.store(rows).encode_snapshot(PRELOAD_GENERATION)
    }
}

/// A server set up and ready for the timed phase.
pub struct Started {
    pub fleet: Fleet,
    pub client: Client,
    pub endpoint: Endpoint,
    /// Set-up wall time: spawn, `Hello`, preload.
    pub took: Duration,
}

/// Set-up of one plain server: spawn, `Hello`, and push-install the
/// preload image (`rows` releases).
pub fn start_plain(
    ctx: &Ctx,
    dir: &str,
    corpus: &Corpus,
    image: &[u8],
    rows: usize,
) -> Result<Started, String> {
    let started = Instant::now();
    let mut fleet = Fleet::new(&ctx.server_bin, ctx.dir(dir), &corpus.spec)?;
    let endpoint = fleet.spawn(&ctx.plain_args(&fleet))?;
    let mut client = crate::procs::connect(&endpoint)?;
    client
        .hello(&corpus.spec)
        .map_err(|e| format!("hello: {e}"))?;
    if rows > 0 {
        let got = client
            .install_snapshot(image, rows as u64, PRELOAD_GENERATION, 0)
            .map_err(|e| format!("preload install: {e}"))?;
        if got != rows as u64 {
            return Err(format!("preload installed {got} rows, expected {rows}"));
        }
    }
    Ok(Started {
        fleet,
        client,
        endpoint,
        took: started.elapsed(),
    })
}
