//! # dp-euclid
//!
//! A production-oriented Rust implementation of **"Improved Differentially
//! Private Euclidean Distance Approximation"** (Nina Mesing Stausholm,
//! PODS 2021; arXiv:2203.11561).
//!
//! Two parties hold private vectors `x, y ∈ R^d`. Each maps its vector
//! through a *public* random Johnson-Lindenstrauss projection `S` and
//! releases a noisy sketch `Sx + η`. From two such sketches anyone can form
//! the debiased, unbiased estimator
//!
//! ```text
//! Ê = ‖(Sx + η) − (Sy + µ)‖² − 2k·E[η²]  ≈  ‖x − y‖²
//! ```
//!
//! The headline construction (paper Theorem 3) pairs the Kane–Nelson
//! **Sparser JL Transform** with **Laplace** noise, achieving pure ε-DP,
//! `O(s·‖x‖₀ + k)` sketching time, `O(s)` streaming updates, and lower
//! variance than the Gaussian-noise baseline whenever `δ < e^{−s}`.
//!
//! The public API is the mechanism-agnostic [`prelude::PrivateSketcher`]
//! trait: a [`prelude::SketcherSpec`] names a construction (SJLT, either
//! FJLT variant, or the Kenthapadi baseline), a config, and the public
//! transform seed; [`prelude::AnySketcher`] built from it releases
//! sketches, and the Note 5 noise-selection rule is applied uniformly
//! behind the trait.
//!
//! ## Quickstart
//!
//! ```
//! use dp_euclid::prelude::*;
//!
//! # fn main() -> Result<(), dp_euclid::core::CoreError> {
//! let d = 1 << 12;
//! let config = SketchConfig::builder()
//!     .input_dim(d)
//!     .alpha(0.25)
//!     .beta(0.05)
//!     .epsilon(1.0)
//!     .build()?;
//!
//! // The spec (construction + config + transform seed) is PUBLIC and
//! // shared by all parties; noise seeds are private, one per party.
//! let spec = SketcherSpec::new(Construction::SjltAuto, config, Seed::new(42));
//! let sketcher = spec.build()?;
//!
//! let x = vec![1.0; d];
//! let mut y = vec![1.0; d];
//! y[0] = 0.0; // ‖x − y‖² = 1
//!
//! let sx = sketcher.sketch(&x, Seed::new(1001))?;
//! let sy = sketcher.sketch(&y, Seed::new(2002))?;
//! let est = sketcher.estimate_sq_distance(&sx, &sy)?;
//! assert!(est.is_finite());
//!
//! // Any other party rebuilds the identical sketcher from the JSON spec.
//! let remote = SketcherSpec::from_json(&spec.to_json())?.build()?;
//! let sz = remote.sketch(&x, Seed::new(3003))?;
//! assert!(sketcher.estimate_sq_distance(&sx, &sz).is_ok());
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate layout
//!
//! | Crate | Contents |
//! |---|---|
//! | [`dp_hashing`] | deterministic PRNGs, seed trees, t-wise independent hashing |
//! | [`dp_linalg`] | dense/sparse vectors, matrices, fast Walsh–Hadamard transform |
//! | [`dp_noise`] | Laplace/Gaussian/discrete mechanisms, moments, privacy accounting |
//! | [`dp_transforms`] | iid-Gaussian, Achlioptas, FJLT and SJLT projections |
//! | [`dp_parallel`] | scoped thread pool, `Parallelism` knob, pairwise tile plan |
//! | [`dp_core`] | the `PrivateSketcher` trait, `AnySketcher`/`SketcherSpec`, estimators, variance theory, wire codecs (v2 frames + v7 protocol) |
//! | [`dp_engine`] | the persistent `SketchStore` and incremental `QueryEngine` over released sketches |
//! | [`dp_stream`] | streaming (turnstile) sketches and the spec-driven distributed protocol |
//! | [`dp_stats`] | measurement utilities used by tests and the experiment harness |
//!
//! A standalone `dp-server` crate (not re-exported here) serves the
//! engine over TCP/unix sockets speaking the wire protocol v7 of
//! [`dp_core::protocol`].

pub use dp_core as core;
pub use dp_engine as engine;
pub use dp_hashing as hashing;
pub use dp_linalg as linalg;
pub use dp_noise as noise;
pub use dp_parallel as parallel;
pub use dp_stats as stats;
pub use dp_stream as stream;
pub use dp_transforms as transforms;

/// One-stop imports for typical use.
pub mod prelude {
    pub use dp_core::{
        achlioptas_private::PrivateAchlioptas,
        config::SketchConfig,
        estimator::{DistanceEstimate, NoisySketch},
        fjlt_private::{PrivateFjltInput, PrivateFjltOutput},
        framework::GenSketcher,
        kenthapadi::{Kenthapadi, SigmaCalibration},
        sjlt_private::PrivateSjlt,
        sketcher::{
            pairwise_sq_distances, pairwise_sq_distances_with_par, sketch_batch_par, AnySketcher,
            Construction, PairwiseDistances, PrivateSketcher, SketcherSpec,
        },
    };
    pub use dp_engine::{EngineError, Gather, GatherError, Neighbor, QueryEngine, SketchStore};
    pub use dp_hashing::Seed;
    pub use dp_noise::{
        mechanism::{GaussianMechanism, LaplaceMechanism, NoiseMechanism},
        privacy::PrivacyGuarantee,
    };
    pub use dp_parallel::{KernelId, Parallelism, TilePlan, TileSegment};
    pub use dp_stream::{
        distributed::{Party, PublicParams, Release},
        streaming::{AnyStreamingTransform, StreamingSketch, StreamingSketcher},
    };
    pub use dp_transforms::{
        achlioptas::Achlioptas, fjlt::Fjlt, gaussian_iid::GaussianIid, params::JlParams,
        sjlt::Sjlt, traits::LinearTransform,
    };
}
