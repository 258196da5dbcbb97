//! §5.2: the two differentially private FJLT variants.
//!
//! * [`PrivateFjltOutput`] (Corollary 1) adds Gaussian noise **to the
//!   output**, calibrated to the exact ℓ₂-sensitivity of the realized
//!   transform. That sensitivity must be scanned explicitly — the same
//!   initialization cost as the Kenthapadi baseline (paper Note 6).
//! * [`PrivateFjltInput`] (Lemma 8) perturbs **the input**:
//!   `Φ(x + η)` with `η ~ N(0, σ²)^d`, `σ = √(2 ln(1.25/δ))/ε`. The
//!   input-space sensitivity is exactly 1, so no scan is needed, but the
//!   variance picks up factors of `d` (the paper's §7 trade-off).
//!
//! Debias bookkeeping for the input-perturbed variant: with the
//! LPP-normalized `Φ′`, `E‖Φ′(x+η) − Φ′(y+µ)‖² = ‖x−y‖² + 2dσ²`, so we
//! record an *effective* per-coordinate second moment `d·σ²/k` in the
//! released [`NoisySketch`] — the generic `‖·‖² − 2k·E[η²]` debias then
//! subtracts exactly `2dσ²`.

use crate::config::SketchConfig;
use crate::error::CoreError;
use crate::estimator::{DistanceEstimate, NoisySketch};
use crate::framework::GenSketcher;
use crate::sketcher::{identity_of, Construction};
use crate::variance::{lemma3_variance, var_fjlt_input_bound, var_transform_fjlt};
use dp_hashing::Seed;
use dp_noise::gaussian::Gaussian;
use dp_noise::mechanism::GaussianMechanism;
use dp_noise::PrivacyGuarantee;
use dp_transforms::fjlt::Fjlt;
use dp_transforms::LinearTransform;

/// Corollary 1: output-perturbed private FJLT.
#[derive(Debug, Clone)]
pub struct PrivateFjltOutput {
    inner: GenSketcher<Fjlt, GaussianMechanism>,
}

impl PrivateFjltOutput {
    /// Build, paying the exact-sensitivity initialization scan.
    ///
    /// # Errors
    /// [`CoreError::MissingField`] without a δ budget; transform errors.
    pub fn new(config: &SketchConfig, transform_seed: Seed) -> Result<Self, CoreError> {
        let identity = identity_of(Construction::FjltOutput, config, transform_seed)?;
        let delta = config.delta().expect("the identity requires δ");
        let transform = Fjlt::new(config.input_dim(), config.k(), config.jl(), transform_seed)?;
        // Note 6: the initialization cost — exact ∆₂ of the realized Φ.
        let l2 = transform.exact_l2_sensitivity();
        let mech = GaussianMechanism::new(l2, config.epsilon(), delta)?;
        Ok(Self {
            inner: GenSketcher::new(transform, mech, identity.tag),
        })
    }

    /// Sketch dimension `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.inner.k()
    }

    /// The underlying general sketcher.
    #[must_use]
    pub fn general(&self) -> &GenSketcher<Fjlt, GaussianMechanism> {
        &self.inner
    }

    /// The calibrated σ (includes the scanned ∆₂).
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.inner.mechanism().sigma()
    }

    /// DP guarantee of releases.
    #[must_use]
    pub fn guarantee(&self) -> PrivacyGuarantee {
        self.inner.guarantee()
    }

    /// Release a sketch.
    ///
    /// # Errors
    /// [`CoreError::Transform`] on dimension mismatch.
    pub fn sketch(&self, x: &[f64], noise_seed: Seed) -> Result<NoisySketch, CoreError> {
        self.inner.sketch(x, noise_seed)
    }

    /// Debiased squared-distance estimate.
    ///
    /// # Errors
    /// [`CoreError::IncompatibleSketches`] on mismatched sketches.
    pub fn estimate_sq_distance(&self, a: &NoisySketch, b: &NoisySketch) -> Result<f64, CoreError> {
        self.inner.estimate_sq_distance(a, b)
    }

    /// Corollary 1 variance bound at a hypothetical true distance:
    /// `(3/k)‖z‖⁴ + 8σ²‖z‖² + 8σ⁴k` (Lemma 3 with the FJLT term).
    #[must_use]
    pub fn variance_bound(&self, dist_sq: f64) -> DistanceEstimate {
        let s2 = self.sigma() * self.sigma();
        let v = lemma3_variance(
            self.k(),
            dist_sq,
            var_transform_fjlt(self.k(), dist_sq),
            s2,
            3.0 * s2 * s2,
        );
        DistanceEstimate {
            estimate: dist_sq,
            predicted_variance: v,
        }
    }
}

/// Lemma 8: input-perturbed private FJLT (no initialization scan).
#[derive(Debug, Clone)]
pub struct PrivateFjltInput {
    transform: Fjlt,
    noise: Gaussian,
    epsilon: f64,
    delta: f64,
    tag: std::sync::Arc<str>,
}

impl PrivateFjltInput {
    /// Build with `σ = √(2 ln(1.25/δ))/ε` (input-space sensitivity 1).
    ///
    /// # Errors
    /// [`CoreError::MissingField`] without a δ budget; transform errors.
    pub fn new(config: &SketchConfig, transform_seed: Seed) -> Result<Self, CoreError> {
        let identity = identity_of(Construction::FjltInput, config, transform_seed)?;
        let delta = config.delta().expect("the identity requires δ");
        let transform = Fjlt::new(config.input_dim(), config.k(), config.jl(), transform_seed)?;
        let sigma = (2.0 * (1.25f64 / delta).ln()).sqrt() / config.epsilon();
        Ok(Self {
            transform,
            noise: Gaussian::new(sigma)?,
            epsilon: config.epsilon(),
            delta,
            tag: identity.tag.into(),
        })
    }

    /// Sketch dimension `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.transform.output_dim()
    }

    /// Input dimension `d`.
    #[must_use]
    pub fn d(&self) -> usize {
        self.transform.input_dim()
    }

    /// The input-noise σ.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.noise.sigma()
    }

    /// DP guarantee: `(ε, δ)` by the Gaussian mechanism on the identity
    /// query (input-space ∆₂ = 1), inherited through post-processing by Φ.
    #[must_use]
    pub fn guarantee(&self) -> PrivacyGuarantee {
        PrivacyGuarantee::Approx {
            epsilon: self.epsilon,
            delta: self.delta,
        }
    }

    /// Release a sketch: `Φ′(x + η)`.
    ///
    /// # Errors
    /// [`CoreError::Transform`] on dimension mismatch.
    pub fn sketch(&self, x: &[f64], noise_seed: Seed) -> Result<NoisySketch, CoreError> {
        let mut noisy_input = x.to_vec();
        let mut rng = noise_seed.child("fjlt-input-noise").rng();
        for v in noisy_input.iter_mut() {
            *v += self.noise.sample(&mut rng);
        }
        let values = self.transform.apply(&noisy_input)?;
        // Effective per-coordinate moment so the generic debias subtracts
        // 2dσ² (see module docs). Fourth moment: Gaussian of the same
        // effective scale (used only for prediction displays).
        let m2_eff = self.d() as f64 * self.sigma() * self.sigma() / self.k() as f64;
        Ok(NoisySketch::new(
            values,
            std::sync::Arc::clone(&self.tag),
            m2_eff,
            3.0 * m2_eff * m2_eff,
        ))
    }

    /// Debiased squared-distance estimate.
    ///
    /// # Errors
    /// [`CoreError::IncompatibleSketches`] on mismatched sketches.
    pub fn estimate_sq_distance(&self, a: &NoisySketch, b: &NoisySketch) -> Result<f64, CoreError> {
        a.estimate_sq_distance(b)
    }

    /// Lemma 8 variance bound at a hypothetical true distance.
    #[must_use]
    pub fn variance_bound(&self, dist_sq: f64) -> DistanceEstimate {
        DistanceEstimate {
            estimate: dist_sq,
            predicted_variance: var_fjlt_input_bound(
                self.k(),
                self.d(),
                self.transform.q(),
                self.sigma(),
                dist_sq,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_stats::Summary;

    fn config() -> SketchConfig {
        SketchConfig::builder()
            .input_dim(32)
            .alpha(0.3)
            .beta(0.1)
            .epsilon(2.0)
            .delta(1e-6)
            .build()
            .unwrap()
    }

    #[test]
    fn both_variants_require_delta() {
        let no_delta = SketchConfig::builder()
            .input_dim(16)
            .epsilon(1.0)
            .build()
            .unwrap();
        assert!(matches!(
            PrivateFjltOutput::new(&no_delta, Seed::new(1)),
            Err(CoreError::MissingField("delta"))
        ));
        assert!(matches!(
            PrivateFjltInput::new(&no_delta, Seed::new(1)),
            Err(CoreError::MissingField("delta"))
        ));
    }

    #[test]
    fn output_variant_sigma_uses_scanned_sensitivity() {
        let cfg = config();
        let f = PrivateFjltOutput::new(&cfg, Seed::new(3)).unwrap();
        // σ = ∆₂·√(2 ln(1.25/δ))/ε with scanned ∆₂ near 1.
        let base = (2.0 * (1.25f64 / 1e-6).ln()).sqrt() / 2.0;
        let implied_delta2 = f.sigma() / base;
        assert!(
            implied_delta2 > 0.5 && implied_delta2 < 2.5,
            "implied ∆₂ {implied_delta2}"
        );
    }

    #[test]
    fn input_variant_unbiased() {
        let cfg = config();
        let d = cfg.input_dim();
        let x = vec![1.0; d];
        let y = vec![0.0; d];
        let true_d = d as f64;
        let mut stats = Summary::new();
        for rep in 0..800u64 {
            let f = PrivateFjltInput::new(&cfg, Seed::new(rep)).unwrap();
            let a = f.sketch(&x, Seed::new(1000 + rep)).unwrap();
            let b = f.sketch(&y, Seed::new(5000 + rep)).unwrap();
            stats.push(f.estimate_sq_distance(&a, &b).unwrap());
        }
        let z = (stats.mean() - true_d).abs() / stats.stderr();
        assert!(z < 4.0, "bias z {z} (mean {} vs {true_d})", stats.mean());
    }

    #[test]
    fn output_variant_unbiased() {
        let cfg = config();
        let d = cfg.input_dim();
        let x = vec![0.5; d];
        let y = vec![-0.5; d];
        let true_d = d as f64;
        let mut stats = Summary::new();
        for rep in 0..800u64 {
            let f = PrivateFjltOutput::new(&cfg, Seed::new(rep)).unwrap();
            let a = f.sketch(&x, Seed::new(1000 + rep)).unwrap();
            let b = f.sketch(&y, Seed::new(5000 + rep)).unwrap();
            stats.push(f.estimate_sq_distance(&a, &b).unwrap());
        }
        let z = (stats.mean() - true_d).abs() / stats.stderr();
        assert!(z < 4.0, "bias z {z} (mean {} vs {true_d})", stats.mean());
    }

    #[test]
    fn input_variance_within_bound() {
        let cfg = config();
        let d = cfg.input_dim();
        let x = vec![1.0; d];
        let y = vec![0.0; d];
        let mut stats = Summary::new();
        for rep in 0..800u64 {
            let f = PrivateFjltInput::new(&cfg, Seed::new(rep)).unwrap();
            let a = f.sketch(&x, Seed::new(1000 + rep)).unwrap();
            let b = f.sketch(&y, Seed::new(5000 + rep)).unwrap();
            stats.push(f.estimate_sq_distance(&a, &b).unwrap());
        }
        let f0 = PrivateFjltInput::new(&cfg, Seed::new(0)).unwrap();
        let bound = f0.variance_bound(d as f64).predicted_variance;
        assert!(
            stats.variance() <= bound * 1.3,
            "var {} vs bound {bound}",
            stats.variance()
        );
    }

    #[test]
    fn input_variance_grows_with_d() {
        // The paper's §7 point: the input-perturbed FJLT's noise variance
        // scales with d, unlike the output-perturbed constructions.
        let small = PrivateFjltInput::new(
            &SketchConfig::builder()
                .input_dim(64)
                .epsilon(1.0)
                .delta(1e-6)
                .build()
                .unwrap(),
            Seed::new(1),
        )
        .unwrap();
        let large = PrivateFjltInput::new(
            &SketchConfig::builder()
                .input_dim(4096)
                .epsilon(1.0)
                .delta(1e-6)
                .build()
                .unwrap(),
            Seed::new(1),
        )
        .unwrap();
        assert!(
            large.variance_bound(1.0).predicted_variance
                > small.variance_bound(1.0).predicted_variance * 10.0
        );
    }

    #[test]
    fn guarantees() {
        let cfg = config();
        let fin = PrivateFjltInput::new(&cfg, Seed::new(2)).unwrap();
        let fout = PrivateFjltOutput::new(&cfg, Seed::new(2)).unwrap();
        assert_eq!(fin.guarantee().epsilon(), 2.0);
        assert_eq!(fin.guarantee().delta(), 1e-6);
        assert!(!fout.guarantee().is_pure());
    }
}
