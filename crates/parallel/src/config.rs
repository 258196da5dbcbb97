//! The [`Parallelism`] knob threaded through the execution paths.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Default side length of a pairwise tile. 64 rows × 64 cols of `f64`
/// estimates keep two sketch blocks plus the output tile comfortably in
/// L2 for JL-sized `k`.
pub const DEFAULT_TILE: usize = 64;

/// Environment variable overriding the worker-thread count
/// (`0` or unset → one worker per available hardware thread).
pub const THREADS_ENV: &str = "DP_THREADS";

/// Hard upper bound on the worker count. Oversubscription is allowed
/// (tests deliberately run 8 workers on 1 core), but a typo'd
/// `DP_THREADS=100000` must not ask the OS for a hundred thousand
/// threads — scoped-spawn failure past the OS limit is a panic, not a
/// recoverable error.
pub const MAX_THREADS: usize = 512;

/// How much hardware an execution path may use: worker-thread count
/// and pairwise tile size, with a guaranteed sequential fallback at
/// `threads = 1`.
///
/// No setting changes a *result*: every consumer in this workspace is
/// bit-identical across thread counts and tile sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
    tile: usize,
}

impl Parallelism {
    /// Run everything on the calling thread (the reference path: one
    /// thread, default tile).
    #[must_use]
    pub fn sequential() -> Self {
        Self {
            threads: 1,
            tile: DEFAULT_TILE,
        }
    }

    /// Use `threads` workers (`0` → one per available hardware thread;
    /// clamped to [`MAX_THREADS`]).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: resolve_threads(threads),
            tile: DEFAULT_TILE,
        }
    }

    /// Read the knob from the environment: [`THREADS_ENV`] for the
    /// worker count (`0`/unset/garbage → auto). The tile side is
    /// [`DEFAULT_TILE`]; [`Parallelism::with_tile`] sets another.
    ///
    /// The environment is read **once per process** and cached — the
    /// default-parallelism APIs sit on per-request paths, and a getenv
    /// lookup plus an `available_parallelism` syscall per pairwise
    /// query would be pure waste. Changing the variable after the first
    /// call has no effect; use the builder methods for runtime control.
    #[must_use]
    pub fn from_env() -> Self {
        static CACHED: OnceLock<Parallelism> = OnceLock::new();
        *CACHED.get_or_init(|| Self::new(env_usize(THREADS_ENV).unwrap_or(0)))
    }

    /// Replace the worker count (`0` → auto).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = resolve_threads(threads);
        self
    }

    /// Replace the tile side length (clamped to at least 1).
    #[must_use]
    pub fn with_tile(mut self, tile: usize) -> Self {
        self.tile = tile.max(1);
        self
    }

    /// Resolved worker count (always ≥ 1).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Pairwise tile side length (always ≥ 1).
    #[must_use]
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Whether every consumer will run on the calling thread only.
    #[must_use]
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }
}

impl Default for Parallelism {
    /// The environment-driven knob ([`Parallelism::from_env`], cached
    /// per process).
    fn default() -> Self {
        Self::from_env()
    }
}

/// `0` means "ask the OS"; anything else is taken literally up to the
/// [`MAX_THREADS`] safety clamp.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
    } else {
        threads.min(MAX_THREADS)
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_one_thread() {
        let p = Parallelism::sequential();
        assert_eq!(p.threads(), 1);
        assert!(p.is_sequential());
        assert_eq!(p.tile(), DEFAULT_TILE);
    }

    #[test]
    fn zero_resolves_to_hardware() {
        let p = Parallelism::new(0);
        assert!(p.threads() >= 1);
        let q = Parallelism::new(5);
        assert_eq!(q.threads(), 5);
        assert!(!q.is_sequential());
    }

    #[test]
    fn absurd_thread_counts_are_clamped() {
        assert_eq!(Parallelism::new(100_000).threads(), MAX_THREADS);
        assert_eq!(
            Parallelism::sequential().with_threads(usize::MAX).threads(),
            MAX_THREADS
        );
        assert_eq!(Parallelism::new(MAX_THREADS).threads(), MAX_THREADS);
    }

    #[test]
    fn tile_clamped_to_one() {
        assert_eq!(Parallelism::sequential().with_tile(0).tile(), 1);
        assert_eq!(Parallelism::sequential().with_tile(17).tile(), 17);
    }

    #[test]
    fn builders_compose() {
        let p = Parallelism::new(3).with_tile(8).with_threads(2);
        assert_eq!((p.threads(), p.tile()), (2, 8));
    }
}
