//! The general Lemma 3/4 construction: any LPP transform × any zero-mean
//! noise mechanism.
//!
//! `GenSketcher` is the paper's "more general, technical result" made
//! concrete: it wires an arbitrary [`LinearTransform`] (which must satisfy
//! LPP — all transforms in `dp-transforms` do) to an arbitrary
//! [`NoiseMechanism`], producing released sketches whose pairwise
//! estimator is unbiased with the Lemma 3 variance. Every
//! output-perturbed construction of the paper is one
//! `GenSketcher<Projection, Noise>`: a [`Projection`] (the SJLT,
//! Achlioptas, i.i.d. Gaussian or FJLT transform) and a [`Noise`]
//! (Laplace or Gaussian), calibrated by `crate::sketcher::AnySketcher`.

use crate::error::CoreError;
use crate::estimator::{DistanceEstimate, NoisySketch};
use crate::variance::lemma3_variance;
use dp_hashing::{Prng, Seed};
use dp_linalg::SparseVector;
use dp_noise::mechanism::{GaussianMechanism, LaplaceMechanism, NoiseMechanism};
use dp_noise::PrivacyGuarantee;
use dp_transforms::achlioptas::Achlioptas;
use dp_transforms::fjlt::Fjlt;
use dp_transforms::gaussian_iid::GaussianIid;
use dp_transforms::sjlt::Sjlt;
use dp_transforms::{LinearTransform, StreamingColumns, TransformError};
use std::sync::Arc;

/// The public projection of an output-perturbed construction: one
/// transform type over the four the constructions use, each applied
/// exactly as on its own.
#[derive(Debug, Clone)]
pub enum Projection {
    /// The Kane–Nelson sparser JL transform (the private SJLT).
    Sjlt(Sjlt),
    /// The Achlioptas database-friendly sparse ±1 projection.
    Achlioptas(Achlioptas),
    /// The dense i.i.d. `N(0, 1/k)` projection (the Kenthapadi baseline).
    GaussianIid(GaussianIid),
    /// The Ailon–Chazelle fast JL transform (the output-perturbed FJLT).
    Fjlt(Fjlt),
}

impl Projection {
    fn transform(&self) -> &dyn LinearTransform {
        match self {
            Self::Sjlt(t) => t,
            Self::Achlioptas(t) => t,
            Self::GaussianIid(t) => t,
            Self::Fjlt(t) => t,
        }
    }

    /// A clone of the transform with column access, for a turnstile
    /// stream: an update `x_j += w` adds `w` times column `j` (`s` rows
    /// for the SJLT, about `k/3` for Achlioptas, all `k` for the dense
    /// Gaussian). An SJLT clone shares the original's lazily resolved
    /// column table. `None` for the FJLT, whose implicit transform has
    /// no per-column form.
    #[must_use]
    pub fn streaming_columns(&self) -> Option<Box<dyn StreamingColumns + Send + Sync>> {
        match self {
            Self::Sjlt(t) => Some(Box::new(t.clone())),
            Self::Achlioptas(t) => Some(Box::new(t.clone())),
            Self::GaussianIid(t) => Some(Box::new(t.clone())),
            Self::Fjlt(_) => None,
        }
    }
}

impl LinearTransform for Projection {
    fn input_dim(&self) -> usize {
        self.transform().input_dim()
    }
    fn output_dim(&self) -> usize {
        self.transform().output_dim()
    }
    fn apply_into(&self, x: &[f64], out: &mut [f64]) -> Result<(), TransformError> {
        self.transform().apply_into(x, out)
    }
    fn apply_sparse(&self, x: &SparseVector) -> Result<Vec<f64>, TransformError> {
        self.transform().apply_sparse(x)
    }
    fn apply_batch_into(&self, rows: &[&[f64]], out: &mut [f64]) -> Result<(), TransformError> {
        self.transform().apply_batch_into(rows, out)
    }
    fn l1_sensitivity(&self) -> f64 {
        self.transform().l1_sensitivity()
    }
    fn l2_sensitivity(&self) -> f64 {
        self.transform().l2_sensitivity()
    }
    fn sensitivity_is_a_priori(&self) -> bool {
        self.transform().sensitivity_is_a_priori()
    }
    fn name(&self) -> &'static str {
        self.transform().name()
    }
}

/// The output noise of a construction: Laplace (pure ε-DP, Lemma 1) or
/// Gaussian ((ε, δ)-DP, Lemma 2).
#[derive(Debug, Clone)]
pub enum Noise {
    /// `Lap(∆₁/ε)` per coordinate.
    Laplace(LaplaceMechanism),
    /// `N(0, σ²)` per coordinate.
    Gaussian(GaussianMechanism),
}

impl Noise {
    fn mechanism(&self) -> &dyn NoiseMechanism {
        match self {
            Self::Laplace(m) => m,
            Self::Gaussian(m) => m,
        }
    }
}

impl NoiseMechanism for Noise {
    // Drawn once per sketch coordinate: matched, so each arm's sampler
    // inlines into the release loop.
    fn sample(&self, rng: &mut dyn Prng) -> f64 {
        match self {
            Self::Laplace(m) => m.sample(rng),
            Self::Gaussian(m) => m.sample(rng),
        }
    }
    fn second_moment(&self) -> f64 {
        self.mechanism().second_moment()
    }
    fn fourth_moment(&self) -> f64 {
        self.mechanism().fourth_moment()
    }
    fn guarantee(&self) -> PrivacyGuarantee {
        self.mechanism().guarantee()
    }
    fn name(&self) -> &'static str {
        self.mechanism().name()
    }
}

/// A private sketcher pairing a public LPP transform with a calibrated
/// noise mechanism.
#[derive(Debug, Clone)]
pub struct GenSketcher<T, M> {
    transform: T,
    mechanism: M,
    tag: Arc<str>,
}

impl<T: LinearTransform, M: NoiseMechanism> GenSketcher<T, M> {
    /// Pair a transform with a mechanism. The `tag` should identify the
    /// public transform instance (name + seed) so incompatible sketches
    /// are rejected at estimation time. It is interned once and shared by
    /// every released sketch.
    #[must_use]
    pub fn new(transform: T, mechanism: M, tag: impl Into<Arc<str>>) -> Self {
        Self {
            transform,
            mechanism,
            tag: tag.into(),
        }
    }

    /// The public transform.
    #[must_use]
    pub fn transform(&self) -> &T {
        &self.transform
    }

    /// The calibrated noise mechanism.
    #[must_use]
    pub fn mechanism(&self) -> &M {
        &self.mechanism
    }

    /// The transform identity tag.
    #[must_use]
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// Sketch dimension `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.transform.output_dim()
    }

    /// The privacy guarantee of each released sketch (post-processing
    /// makes every estimate computed from sketches inherit it).
    #[must_use]
    pub fn guarantee(&self) -> PrivacyGuarantee {
        self.mechanism.guarantee()
    }

    /// Release a noisy sketch of `x`. The `noise_seed` must be private to
    /// the releasing party and fresh per release.
    ///
    /// # Errors
    /// [`CoreError::Transform`] on dimension mismatch.
    pub fn sketch(&self, x: &[f64], noise_seed: Seed) -> Result<NoisySketch, CoreError> {
        let mut values = self.transform.apply(x)?;
        self.add_noise(&mut values, noise_seed);
        Ok(self.package(values))
    }

    /// Release a noisy sketch of a sparse vector (uses the transform's
    /// sparse fast path when it has one).
    ///
    /// # Errors
    /// [`CoreError::Transform`] on dimension mismatch.
    pub fn sketch_sparse(
        &self,
        x: &SparseVector,
        noise_seed: Seed,
    ) -> Result<NoisySketch, CoreError> {
        let mut values = self.transform.apply_sparse(x)?;
        self.add_noise(&mut values, noise_seed);
        Ok(self.package(values))
    }

    /// Debiased squared-distance estimate between two released sketches.
    ///
    /// # Errors
    /// [`CoreError::IncompatibleSketches`] if the sketches don't combine.
    pub fn estimate_sq_distance(&self, a: &NoisySketch, b: &NoisySketch) -> Result<f64, CoreError> {
        a.estimate_sq_distance(b)
    }

    /// Lemma 3 variance prediction, given the true squared distance and a
    /// transform-term value (callers pick the exact/bound form for their
    /// transform from [`crate::variance`]).
    #[must_use]
    pub fn predicted_variance(&self, dist_sq: f64, var_transform_term: f64) -> DistanceEstimate {
        let v = lemma3_variance(
            self.k(),
            dist_sq,
            var_transform_term,
            self.mechanism.second_moment(),
            self.mechanism.fourth_moment(),
        );
        DistanceEstimate {
            estimate: dist_sq,
            predicted_variance: v,
        }
    }

    /// The debias constant `2k·E[η²]` of the pairwise estimator.
    #[must_use]
    pub fn debias_constant(&self) -> f64 {
        2.0 * self.k() as f64 * self.mechanism.second_moment()
    }

    /// Add calibrated noise to an externally maintained noiseless
    /// projection (e.g. a streaming accumulator built over the same
    /// public transform) and package it as a release.
    ///
    /// # Errors
    /// [`CoreError::Transform`] if `values` is not `k`-dimensional.
    pub fn finalize(
        &self,
        mut values: Vec<f64>,
        noise_seed: Seed,
    ) -> Result<NoisySketch, CoreError> {
        if values.len() != self.k() {
            return Err(TransformError::DimensionMismatch {
                expected: self.k(),
                actual: values.len(),
            }
            .into());
        }
        self.add_noise(&mut values, noise_seed);
        Ok(self.package(values))
    }

    fn add_noise(&self, values: &mut [f64], noise_seed: Seed) {
        let mut rng = noise_seed.child("noise").rng();
        for v in values.iter_mut() {
            *v += self.mechanism.sample(&mut rng);
        }
    }

    fn package(&self, values: Vec<f64>) -> NoisySketch {
        NoisySketch::new(
            values,
            Arc::clone(&self.tag),
            self.mechanism.second_moment(),
            self.mechanism.fourth_moment(),
        )
    }
}

/// Lemma 4's noise margin `m = min(∆₁, ∆₂·√(ln(1/δ)))` — the quantity the
/// total noise contribution scales with.
#[must_use]
pub fn noise_margin(l1_sensitivity: f64, l2_sensitivity: f64, delta: Option<f64>) -> f64 {
    match delta {
        None => l1_sensitivity,
        Some(d) => l1_sensitivity.min(l2_sensitivity * (1.0 / d).ln().sqrt()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_noise::mechanism::ZeroNoise;
    use dp_stats::Summary;

    fn sketcher_zero() -> GenSketcher<Sjlt, ZeroNoise> {
        let t = Sjlt::new(32, 16, 4, 6, Seed::new(1)).unwrap();
        GenSketcher::new(t, ZeroNoise, "sjlt#1")
    }

    #[test]
    fn zero_noise_reduces_to_plain_projection() {
        let s = sketcher_zero();
        let x = vec![1.0; 32];
        let sk = s.sketch(&x, Seed::new(99)).unwrap();
        let direct = s.transform().apply(&x).unwrap();
        assert_eq!(sk.values(), direct.as_slice());
        assert_eq!(s.debias_constant(), 0.0);
    }

    #[test]
    fn sparse_and_dense_sketches_agree_without_noise() {
        let s = sketcher_zero();
        let mut x = vec![0.0; 32];
        x[7] = 2.0;
        let sv = SparseVector::from_dense(&x);
        let a = s.sketch(&x, Seed::new(5)).unwrap();
        let b = s.sketch_sparse(&sv, Seed::new(5)).unwrap();
        for (u, v) in a.values().iter().zip(b.values()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn noise_seeds_are_respected() {
        let t = Sjlt::new(16, 8, 2, 4, Seed::new(2)).unwrap();
        let m = LaplaceMechanism::new(2.0f64.sqrt(), 1.0).unwrap();
        let s = GenSketcher::new(t, m, "sjlt#2");
        let x = vec![1.0; 16];
        let a = s.sketch(&x, Seed::new(10)).unwrap();
        let b = s.sketch(&x, Seed::new(10)).unwrap();
        let c = s.sketch(&x, Seed::new(11)).unwrap();
        assert_eq!(a, b, "same noise seed → identical release");
        assert_ne!(a, c, "fresh noise seed → fresh noise");
    }

    #[test]
    fn estimator_unbiased_with_laplace_noise() {
        // Monte-Carlo over transform AND noise draws: the mean of Ê must
        // approach ‖x − y‖².
        let d = 24;
        let x: Vec<f64> = (0..d).map(|i| (i % 3) as f64).collect();
        let y: Vec<f64> = (0..d).map(|i| ((i + 1) % 3) as f64).collect();
        let true_d = dp_linalg::vector::sq_distance(&x, &y);
        let mut stats = Summary::new();
        for rep in 0..1500u64 {
            let t = Sjlt::new(d, 16, 4, 6, Seed::new(rep)).unwrap();
            let m = LaplaceMechanism::new(2.0, 2.0).unwrap();
            let s = GenSketcher::new(t, m, format!("sjlt#{rep}"));
            let a = s.sketch(&x, Seed::new(10_000 + rep)).unwrap();
            let b = s.sketch(&y, Seed::new(20_000 + rep)).unwrap();
            stats.push(s.estimate_sq_distance(&a, &b).unwrap());
        }
        let z = (stats.mean() - true_d).abs() / stats.stderr();
        assert!(
            z < 4.0,
            "bias z-score {z} (mean {} vs {true_d})",
            stats.mean()
        );
    }

    #[test]
    fn lemma3_variance_matches_empirical() {
        // Variance of Ê ≈ Lemma 3 prediction with the exact SJLT term.
        let d = 24;
        let x: Vec<f64> = (0..d).map(|i| 0.5 + (i % 2) as f64).collect();
        let y = vec![0.0; d];
        let z: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a - b).collect();
        let dist_sq = dp_linalg::vector::sq_norm(&z);
        let l4 = dp_linalg::vector::l4_norm(&z);
        let (k, s_par, eps) = (32usize, 4usize, 1.5f64);
        let mut stats = Summary::new();
        for rep in 0..4000u64 {
            let t = Sjlt::new(d, k, s_par, 8, Seed::new(rep)).unwrap();
            let m = LaplaceMechanism::new((s_par as f64).sqrt(), eps).unwrap();
            let s = GenSketcher::new(t, m, "tag");
            let a = s.sketch(&x, Seed::new(50_000 + rep)).unwrap();
            let b = s.sketch(&y, Seed::new(90_000 + rep)).unwrap();
            stats.push(s.estimate_sq_distance(&a, &b).unwrap());
        }
        let predicted = crate::variance::var_sjlt_laplace(k, s_par, eps, dist_sq, l4);
        let rel = (stats.variance() - predicted).abs() / predicted;
        // Fourth-moment Monte-Carlo noise is heavy; 15% tolerance.
        assert!(
            rel < 0.15,
            "var {} vs {predicted} (rel {rel})",
            stats.variance()
        );
    }

    #[test]
    fn guarantee_passthrough() {
        let t = Sjlt::new(8, 4, 2, 4, Seed::new(3)).unwrap();
        let m = LaplaceMechanism::new(2.0f64.sqrt(), 0.25).unwrap();
        let s = GenSketcher::new(t, m, "t");
        assert!(s.guarantee().is_pure());
        assert!((s.guarantee().epsilon() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn margin_rule() {
        assert_eq!(noise_margin(3.0, 1.0, None), 3.0);
        // δ small → Laplace side smaller.
        let m = noise_margin(2.0, 1.0, Some(1e-9));
        assert!((m - 2.0).abs() < 1e-12);
        // δ large → Gaussian side smaller.
        let m = noise_margin(2.0, 1.0, Some(0.3));
        assert!(m < 2.0);
    }
}
