//! Differential-privacy noise distributions and mechanisms.
//!
//! The paper (Stausholm, PODS 2021) calibrates output noise with either the
//! **Laplace mechanism** (Lemma 1: `b = ∆₁/ε`, pure ε-DP) or the
//! **Gaussian mechanism** (Lemma 2: `σ ≥ ∆₂·ε⁻¹·√(2 ln(1.25/δ))`,
//! (ε,δ)-DP), choosing between them by the Note 5 rule
//! `m = min(∆₁, ∆₂·√ln(1/δ))`. Its §2.3.1 surveys the floating-point
//! pitfalls of continuous samplers (Mironov, CCS 2012) and points to the
//! discrete Laplace/Gaussian (Canonne–Kamath–Steinke 2020) and Mironov's
//! snapping mechanism as mitigations. The continuous and discrete
//! mechanisms are implemented here, from scratch, with closed-form (or
//! numerically summed) moments `E[η²]`, `E[η⁴]` because those two
//! moments are exactly what the estimator debiasing and the Lemma 3
//! variance formula consume. Releasing the Laplace constructions through
//! a floating-point-safe mechanism changes release bits, so it is parked
//! (ROADMAP.md, *Floating-point-safe Laplace releases*).
//!
//! Samplers are hand-rolled on the deterministic [`dp_hashing::Prng`]
//! streams; no external randomness crates are used in library code.

pub mod bernoulli_exp;
pub mod discrete_gaussian;
pub mod discrete_laplace;
pub mod erf;
pub mod error;
pub mod gaussian;
pub mod laplace;
pub mod mechanism;
pub mod moments;
pub mod privacy;
pub mod randomized_response;

pub use error::NoiseError;
pub use mechanism::{
    select_mechanism, DiscreteGaussianMechanism, DiscreteLaplaceMechanism, GaussianMechanism,
    LaplaceMechanism, MechanismChoice, NoiseMechanism, ZeroNoise,
};
pub use privacy::PrivacyGuarantee;
