//! The paper's contribution: differentially private Euclidean distance
//! sketches and their estimators (Stausholm, PODS 2021).
//!
//! * [`framework`] — the general Lemma 3/4 machinery: any LPP transform
//!   combined with any zero-mean noise mechanism yields the unbiased
//!   estimator `Ê = ‖(Sx+η) − (Sy+µ)‖² − 2k·E[η²]` with the exact variance
//!   decomposition of Lemma 3. Its [`Projection`] and [`Noise`] are the
//!   transforms and noises every output-perturbed construction pairs.
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
//!   [`PrivateSketcher`] trait; [`AnySketcher`], the one construction
//!   type, calibrating every construction of the paper in one function
//!   (the private SJLT of Theorem 3 under the Note 5 rule, the two §5.2
//!   FJLT variants of Corollary 1 and Lemma 8, the Theorems 1–2
//!   Kenthapadi baseline in its three [`SigmaCalibration`]s, and the
//!   private Achlioptas projection) with each one's variance prediction;
//!   the serializable [`SketcherSpec`] public parameters; batch release;
//!   and the tile executor every all-pairs matrix runs — data-parallel
//!   on the [`Parallelism`] knob, bit-identical to the sequential
//!   reference for every thread count and tile size.
//! * [`wire`] — the versioned compact binary codec for released sketches.
//! * [`release`] — the `DPRL` release frame (sketch + party id) every
//!   party sends and the sketch store and the server parse.
//! * [`protocol`] — wire codec v3: the length-prefixed
//!   request/response frames a sketch service speaks (Hello/Ingest/
//!   Pairwise/Knn/TopPairs and their responses).
//! * [`json`] — the dependency-free JSON reader/writer behind the spec
//!   JSON.

pub mod config;
pub mod error;
pub mod estimator;
pub mod framework;
pub mod json;
pub mod kernel;
pub mod protocol;
pub mod release;
pub mod sketcher;
pub mod variance;
pub mod wire;

pub use config::SketchConfig;
pub use error::CoreError;
pub use estimator::{DistanceEstimate, NoisySketch};
pub use framework::{GenSketcher, Noise, Projection};
pub use kernel::KernelId;
pub use release::Release;
pub use sketcher::{
    effective_plan, execute_tiles, pairwise_sq_distances_reference, pairwise_sq_distances_rows,
    scatter_tile_segment, sketch_batch_par, sketch_batch_sequential, AnySketcher, Construction,
    PairwiseDistances, PrivateSketcher, SigmaCalibration, SketcherSpec, SpecIdentity,
};
// The execution knob and tile plan, re-exported so downstream
// crates need not depend on dp-parallel directly.
pub use dp_parallel::{Parallelism, Tile, TilePlan, TileSegment};
