//! The paper's contribution: differentially private Euclidean distance
//! sketches and their estimators (Stausholm, PODS 2021).
//!
//! * [`framework`] — the general Lemma 3/4 machinery: any LPP transform
//!   combined with any zero-mean noise mechanism yields the unbiased
//!   estimator `Ê = ‖(Sx+η) − (Sy+µ)‖² − 2k·E[η²]` with the exact variance
//!   decomposition of Lemma 3.
//! * [`sjlt_private`] — Theorem 3: the private SJLT with Laplace noise
//!   (pure ε-DP) or Gaussian noise, selected by the Note 5 rule.
//! * [`fjlt_private`] — §5.2: the two private FJLT variants
//!   (output-perturbed / Corollary 1, input-perturbed / Lemma 8).
//! * [`kenthapadi`] — the Theorems 1–2 baseline with its three σ
//!   calibration modes.
//! * [`achlioptas_private`] — the sparse ±1 Achlioptas projection under
//!   the same output-noise framework (the second column-streaming
//!   construction).
//! * [`variance`] — closed-form variance predictors and the §7 crossover
//!   solvers that the experiment harness gates against.
//! * [`config`] — a builder that applies every decision rule in the paper
//!   end-to-end (k, s, noise choice) from `(d, α, β, ε, δ)`.
//! * [`kernel`] — the per-pair distance accumulator (the frozen
//!   zip-order scalar sum, [`KernelId::V1Scalar`]) with its eight-pair
//!   group form for tiles and its eight-row run form for k-NN scans,
//!   AVX2 where the CPU has it and bit-identical everywhere. The spec
//!   names the kernel; state naming the retired `v2-simd` is refused.
//! * [`sketcher`] — the unified release API: the object-safe
//!   [`PrivateSketcher`] trait, the [`AnySketcher`] enum over every
//!   construction, the serializable [`SketcherSpec`] public parameters,
//!   batch release, and the tile executor every all-pairs matrix runs —
//!   data-parallel on the [`Parallelism`] knob, bit-identical to the
//!   sequential reference for every thread count and tile size.
//! * [`wire`] — the versioned compact binary codec for released sketches.
//! * [`release`] — the `DPRL` release frame (sketch + party id) every
//!   party sends and the sketch store and the server parse.
//! * [`protocol`] — wire codec v3: the length-prefixed
//!   request/response frames a sketch service speaks (Hello/Ingest/
//!   Pairwise/Knn/TopPairs and their responses).
//! * [`json`] — the dependency-free JSON reader/writer behind the spec
//!   JSON.

pub mod achlioptas_private;
pub mod config;
pub mod error;
pub mod estimator;
pub mod fjlt_private;
pub mod framework;
pub mod json;
pub mod kenthapadi;
pub mod kernel;
pub mod protocol;
pub mod release;
pub mod sjlt_private;
pub mod sketcher;
pub mod variance;
pub mod wire;

pub use achlioptas_private::PrivateAchlioptas;
pub use config::SketchConfig;
pub use error::CoreError;
pub use estimator::{DistanceEstimate, NoisySketch};
pub use framework::GenSketcher;
pub use kernel::KernelId;
pub use release::Release;
pub use sjlt_private::PrivateSjlt;
pub use sketcher::{
    effective_plan, execute_tiles, pairwise_sq_distances_reference, pairwise_sq_distances_rows,
    scatter_tile_segment, sketch_batch_par, sketch_batch_sequential, AnySketcher, Construction,
    PairwiseDistances, PrivateSketcher, SketcherSpec, SpecIdentity,
};
// The execution knob and tile plan, re-exported so downstream
// crates need not depend on dp-parallel directly.
pub use dp_parallel::{Parallelism, Tile, TilePlan, TileSegment};
