//! The [`Parallelism`] knob threaded through the execution paths.

use std::fmt;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Default side length of a pairwise tile. 64 rows × 64 cols of `f64`
/// estimates keep two sketch blocks plus the output tile comfortably in
/// L2 for JL-sized `k`.
pub const DEFAULT_TILE: usize = 64;

/// Environment variable overriding the worker-thread count
/// (`0` or unset → one worker per available hardware thread).
pub const THREADS_ENV: &str = "DP_THREADS";

/// Environment variable selecting the distance-kernel version
/// (`scalar`/`v1`/`v1-scalar` → [`KernelId::V1Scalar`];
/// `simd`/`v2`/`v2-simd` → [`KernelId::V2Simd`]; unset/garbage → V1).
pub const KERNEL_ENV: &str = "DP_KERNEL";

/// The versioned identity of the per-pair distance accumulator.
///
/// Unlike threads and tile size, the kernel version **changes result
/// bits**: V2 reassociates the accumulation (SIMD lanes + fused
/// multiply-add), so the determinism contract is scoped *per version* —
/// results are bit-identical across threads/tiles/shards within one
/// `KernelId`, and a fleet must agree on one kernel per store (the
/// protocol negotiates it on `Hello` and refuses mismatches with a
/// typed `ERR_KERNEL`). The actual accumulator implementations live in
/// `dp_core::kernel`; this type is defined here so the [`Parallelism`]
/// knob can carry it without a dependency cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelId {
    /// The original strictly sequential zip-order scalar accumulator —
    /// the historic bit-identity anchor, and the default.
    #[default]
    V1Scalar,
    /// Explicit-width SIMD: 4 independent f64 lane accumulators with
    /// fused multiply-add and a scalar tail (runtime-detected AVX2/FMA
    /// on `x86_64`, a bit-identical unrolled portable path elsewhere).
    V2Simd,
}

impl KernelId {
    /// Stable wire/JSON name (`v1-scalar` / `v2-simd`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::V1Scalar => "v1-scalar",
            Self::V2Simd => "v2-simd",
        }
    }

    /// Parse a kernel name as accepted by [`KERNEL_ENV`] and the spec
    /// JSON. Returns `None` on an unknown name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" | "v1" | "v1-scalar" => Some(Self::V1Scalar),
            "simd" | "v2" | "v2-simd" => Some(Self::V2Simd),
            _ => None,
        }
    }

    /// One-byte wire code (protocol `Hello` negotiation).
    #[must_use]
    pub fn wire_code(self) -> u8 {
        match self {
            Self::V1Scalar => 1,
            Self::V2Simd => 2,
        }
    }

    /// Inverse of [`KernelId::wire_code`].
    #[must_use]
    pub fn from_wire_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(Self::V1Scalar),
            2 => Some(Self::V2Simd),
            _ => None,
        }
    }
}

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Hard upper bound on the worker count. Oversubscription is allowed
/// (tests deliberately run 8 workers on 1 core), but a typo'd
/// `DP_THREADS=100000` must not ask the OS for a hundred thousand
/// threads — scoped-spawn failure past the OS limit is a panic, not a
/// recoverable error.
pub const MAX_THREADS: usize = 512;

/// How much hardware an execution path may use — worker-thread count
/// and pairwise tile size, with a guaranteed sequential fallback at
/// `threads = 1` — plus *which version* of the distance kernel runs
/// ([`KernelId`]).
///
/// Threads and tile size never change *results* — every consumer in
/// this workspace is bit-identical across thread counts and tile sizes.
/// The kernel id is different: it selects the floating-point expression
/// itself, so results are bit-identical only *within* one kernel
/// version (see [`KernelId`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
    tile: usize,
    kernel: KernelId,
}

impl Parallelism {
    /// Run everything on the calling thread (the reference path:
    /// one thread, default tile, the V1 scalar kernel).
    #[must_use]
    pub fn sequential() -> Self {
        Self {
            threads: 1,
            tile: DEFAULT_TILE,
            kernel: KernelId::V1Scalar,
        }
    }

    /// Use `threads` workers (`0` → one per available hardware thread;
    /// clamped to [`MAX_THREADS`]). The kernel stays V1 scalar; opt
    /// into V2 explicitly via [`Parallelism::with_kernel`] or the
    /// [`KERNEL_ENV`]-driven [`Parallelism::from_env`].
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: resolve_threads(threads),
            tile: DEFAULT_TILE,
            kernel: KernelId::V1Scalar,
        }
    }

    /// Read the knob from the environment: [`THREADS_ENV`] for the
    /// worker count (`0`/unset/garbage → auto) and [`KERNEL_ENV`] for
    /// the kernel version (unset/garbage → [`KernelId::V1Scalar`]). The
    /// tile side is [`DEFAULT_TILE`]; [`Parallelism::with_tile`] sets
    /// another.
    ///
    /// The environment is read **once per process** and cached — the
    /// default-parallelism APIs sit on per-request paths, and two
    /// getenv lookups plus an `available_parallelism` syscall per
    /// pairwise query would be pure waste. Changing the variables after
    /// the first call has no effect; use the builder methods for
    /// runtime control.
    #[must_use]
    pub fn from_env() -> Self {
        static CACHED: OnceLock<Parallelism> = OnceLock::new();
        *CACHED.get_or_init(|| {
            let threads = env_usize(THREADS_ENV).unwrap_or(0);
            let kernel = std::env::var(KERNEL_ENV)
                .ok()
                .and_then(|v| KernelId::parse(&v))
                .unwrap_or_default();
            Self::new(threads).with_kernel(kernel)
        })
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

    /// Replace the distance-kernel version. Unlike the other builders
    /// this one changes result bits — see [`KernelId`].
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelId) -> Self {
        self.kernel = kernel;
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

    /// The distance-kernel version in effect.
    #[must_use]
    pub fn kernel(&self) -> KernelId {
        self.kernel
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
        assert_eq!(p.kernel(), KernelId::V1Scalar);
        assert_eq!(p.with_kernel(KernelId::V2Simd).kernel(), KernelId::V2Simd);
    }

    #[test]
    fn kernel_names_roundtrip() {
        for kernel in [KernelId::V1Scalar, KernelId::V2Simd] {
            assert_eq!(KernelId::parse(kernel.name()), Some(kernel));
            assert_eq!(KernelId::from_wire_code(kernel.wire_code()), Some(kernel));
            assert_eq!(kernel.to_string(), kernel.name());
        }
        assert_eq!(KernelId::parse("scalar"), Some(KernelId::V1Scalar));
        assert_eq!(KernelId::parse("SIMD"), Some(KernelId::V2Simd));
        assert_eq!(KernelId::parse("v3-quantum"), None);
        assert_eq!(KernelId::from_wire_code(0), None);
        assert_eq!(KernelId::from_wire_code(9), None);
        assert_eq!(KernelId::default(), KernelId::V1Scalar);
    }
}
