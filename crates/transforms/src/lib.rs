//! Johnson–Lindenstrauss projections used by the private sketches.
//!
//! Every transform in this crate is **LPP-normalized** (paper
//! Definition 4): `E[‖apply(x)‖²] = ‖x‖²`, so a single estimator shape
//! `‖sketch(x) − sketch(y)‖² − 2k·E[η²]` is unbiased for all of them. The
//! paper statements that normalize differently (e.g. Corollary 1's
//! `(1/k)‖Φ·‖²`) are absorbed into the transform here.
//!
//! Implemented families:
//!
//! * [`gaussian_iid::GaussianIid`] — the classic Indyk–Motwani transform
//!   with entries `N(0, 1/k)`; the Kenthapadi et al. baseline substrate.
//! * [`achlioptas::Achlioptas`] — database-friendly sparse ±1 projection.
//! * [`fjlt::Fjlt`] — Ailon–Chazelle fast JL transform `Φ = P·H·D`
//!   (paper §5.1), `O(d log d + |P|)` application via the FWHT.
//! * [`sjlt::Sjlt`] — Kane–Nelson sparser JL transform, block
//!   construction "(c)" (paper §6.1): sparsity `s`, exact sensitivities
//!   `∆₁ = √s`, `∆₂ = 1`, `O(s·‖x‖₀ + k)` application.
//! * [`sjlt_graph::SjltGraph`] — the "(b)" graph variant (s distinct rows
//!   per column).
//! * [`srht::Srht`] — subsampled randomized Hadamard transform, included
//!   to exercise the generality of the Lemma 3/4 framework (its dense
//!   columns give `∆₁ = √k`, quantifying why the SJLT's sparsity wins).
//! * [`dense::DenseTransform`] — explicit-matrix wrapper used for
//!   verification and for exact sensitivity scans of arbitrary transforms.

pub mod achlioptas;
pub mod dense;
pub mod error;
pub mod fjlt;
pub mod gaussian_iid;
pub mod params;
pub mod sjlt;
pub mod sjlt_graph;
pub mod srht;
pub mod traits;

pub use error::TransformError;
pub use params::JlParams;
pub use traits::{materialize, materialize_streaming, LinearTransform, StreamingColumns};
