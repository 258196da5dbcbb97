//! Theorem 3: the private Sparser JL Transform.
//!
//! The SJLT has a-priori sensitivities `∆₁ = √s`, `∆₂ = 1`, so the noise
//! calibration needs **no initialization scan**. The Note 5 rule picks:
//!
//! * **Laplace(√s/ε)** — pure ε-DP — when no δ is budgeted or
//!   `δ < e^{−s}`;
//! * **Gaussian(√(2 ln(1.25/δ))/ε)** — (ε,δ)-DP — otherwise, which is
//!   exactly the Kenthapadi et al. noise level but with the sparse
//!   transform's `O(s·‖x‖₀ + k)` speed (paper §6.2.3).

use crate::config::SketchConfig;
use crate::error::CoreError;
use crate::estimator::{DistanceEstimate, NoisySketch};
use crate::framework::GenSketcher;
use crate::sketcher::{identity_of, Construction};
use crate::variance::{lemma3_variance, var_sjlt_gaussian, var_sjlt_laplace, var_transform_sjlt};
use dp_hashing::{Prng, Seed};
use dp_linalg::SparseVector;
use dp_noise::mechanism::{GaussianMechanism, LaplaceMechanism, MechanismChoice, NoiseMechanism};
use dp_noise::PrivacyGuarantee;
use dp_transforms::sjlt::Sjlt;
use dp_transforms::LinearTransform;

/// The noise side of the private SJLT (Note 5's two candidates).
#[derive(Debug, Clone)]
pub enum SjltNoise {
    /// `Lap(√s/ε)` — pure ε-DP (Theorem 3 as stated).
    Laplace(LaplaceMechanism),
    /// `N(0, σ²)`, `σ = √(2 ln(1.25/δ))/ε` — (ε,δ)-DP (§6.2.3 variant).
    Gaussian(GaussianMechanism),
}

impl NoiseMechanism for SjltNoise {
    fn sample(&self, rng: &mut dyn Prng) -> f64 {
        match self {
            Self::Laplace(m) => m.sample(rng),
            Self::Gaussian(m) => m.sample(rng),
        }
    }
    fn second_moment(&self) -> f64 {
        match self {
            Self::Laplace(m) => m.second_moment(),
            Self::Gaussian(m) => m.second_moment(),
        }
    }
    fn fourth_moment(&self) -> f64 {
        match self {
            Self::Laplace(m) => m.fourth_moment(),
            Self::Gaussian(m) => m.fourth_moment(),
        }
    }
    fn guarantee(&self) -> PrivacyGuarantee {
        match self {
            Self::Laplace(m) => m.guarantee(),
            Self::Gaussian(m) => m.guarantee(),
        }
    }
    fn name(&self) -> &'static str {
        match self {
            Self::Laplace(_) => "laplace",
            Self::Gaussian(_) => "gaussian",
        }
    }
}

/// The paper's main construction (Theorem 3).
#[derive(Debug, Clone)]
pub struct PrivateSjlt {
    inner: GenSketcher<Sjlt, SjltNoise>,
    epsilon: f64,
    delta: Option<f64>,
}

impl PrivateSjlt {
    /// Build with the Note 5 noise selection applied automatically.
    ///
    /// # Errors
    /// Propagates transform/noise construction failures.
    pub fn new(config: &SketchConfig, transform_seed: Seed) -> Result<Self, CoreError> {
        match config.sjlt_noise_choice() {
            MechanismChoice::Laplace => Self::with_laplace(config, transform_seed),
            MechanismChoice::Gaussian => Self::with_gaussian(config, transform_seed),
        }
    }

    /// Force the Laplace variant (pure ε-DP; Theorem 3 as stated).
    ///
    /// # Errors
    /// Propagates transform/noise construction failures.
    pub fn with_laplace(config: &SketchConfig, transform_seed: Seed) -> Result<Self, CoreError> {
        let identity = identity_of(Construction::SjltLaplace, config, transform_seed)?;
        let transform = Sjlt::from_params(config.input_dim(), config.jl(), transform_seed)?;
        let l1 = transform.l1_sensitivity(); // √s, a priori
        let mech = SjltNoise::Laplace(LaplaceMechanism::new(l1, config.epsilon())?);
        Ok(Self::assemble(transform, mech, identity.tag, config))
    }

    /// Force the Gaussian variant ((ε,δ)-DP; requires a δ budget).
    ///
    /// # Errors
    /// [`CoreError::MissingField`] if the config has no δ.
    pub fn with_gaussian(config: &SketchConfig, transform_seed: Seed) -> Result<Self, CoreError> {
        let identity = identity_of(Construction::SjltGaussian, config, transform_seed)?;
        let delta = config.delta().expect("the identity requires δ");
        let transform = Sjlt::from_params(config.input_dim(), config.jl(), transform_seed)?;
        let l2 = transform.l2_sensitivity(); // 1, a priori
        let mech = SjltNoise::Gaussian(GaussianMechanism::new(l2, config.epsilon(), delta)?);
        Ok(Self::assemble(transform, mech, identity.tag, config))
    }

    fn assemble(transform: Sjlt, mech: SjltNoise, tag: String, config: &SketchConfig) -> Self {
        Self {
            inner: GenSketcher::new(transform, mech, tag),
            epsilon: config.epsilon(),
            delta: config.delta(),
        }
    }

    /// Sketch dimension `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.inner.k()
    }

    /// Sparsity `s`.
    #[must_use]
    pub fn s(&self) -> usize {
        self.inner.transform().sparsity()
    }

    /// The released sketches' DP guarantee.
    #[must_use]
    pub fn guarantee(&self) -> PrivacyGuarantee {
        self.inner.guarantee()
    }

    /// The underlying general sketcher.
    #[must_use]
    pub fn general(&self) -> &GenSketcher<Sjlt, SjltNoise> {
        &self.inner
    }

    /// Release a sketch of a dense vector (panics-free API; see
    /// [`GenSketcher::sketch`]).
    #[must_use = "the sketch is the released object"]
    pub fn sketch(&self, x: &[f64], noise_seed: Seed) -> NoisySketch {
        self.inner
            .sketch(x, noise_seed)
            .expect("dimension validated by caller contract")
    }

    /// Fallible sketch of a dense vector.
    ///
    /// # Errors
    /// [`CoreError::Transform`] on dimension mismatch.
    pub fn try_sketch(&self, x: &[f64], noise_seed: Seed) -> Result<NoisySketch, CoreError> {
        self.inner.sketch(x, noise_seed)
    }

    /// Release a sketch of a sparse vector in `O(s·‖x‖₀ + k)` time
    /// (Theorem 3, item 5).
    ///
    /// # Errors
    /// [`CoreError::Transform`] on dimension mismatch.
    pub fn sketch_sparse(
        &self,
        x: &SparseVector,
        noise_seed: Seed,
    ) -> Result<NoisySketch, CoreError> {
        self.inner.sketch_sparse(x, noise_seed)
    }

    /// Debiased squared-distance estimate (`O(k)` — Theorem 3, item 5).
    #[must_use]
    pub fn estimate_sq_distance(&self, a: &NoisySketch, b: &NoisySketch) -> f64 {
        a.estimate_sq_distance(b)
            .expect("sketches from this sketcher are compatible")
    }

    /// Theorem 3's variance bound at a hypothetical true distance
    /// (conservative: drops the `−‖z‖₄⁴` sharpening).
    #[must_use]
    pub fn variance_bound(&self, dist_sq: f64) -> DistanceEstimate {
        let v = match self.inner.mechanism() {
            SjltNoise::Laplace(_) => {
                var_sjlt_laplace(self.k(), self.s(), self.epsilon, dist_sq, 0.0)
            }
            SjltNoise::Gaussian(_) => var_sjlt_gaussian(
                self.k(),
                self.epsilon,
                self.delta.expect("gaussian variant has delta"),
                dist_sq,
                0.0,
            ),
        };
        DistanceEstimate {
            estimate: dist_sq,
            predicted_variance: v,
        }
    }

    /// Exact Lemma 3 variance given the full difference vector
    /// (uses the sharp `‖z‖₄⁴` term).
    #[must_use]
    pub fn exact_variance(&self, z: &[f64]) -> f64 {
        let dist_sq = dp_linalg::vector::sq_norm(z);
        let l4 = dp_linalg::vector::l4_norm(z);
        lemma3_variance(
            self.k(),
            dist_sq,
            var_transform_sjlt(self.k(), dist_sq, l4),
            self.inner.mechanism().second_moment(),
            self.inner.mechanism().fourth_moment(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_stats::Summary;

    fn config(delta: Option<f64>) -> SketchConfig {
        let mut b = SketchConfig::builder()
            .input_dim(64)
            .alpha(0.25)
            .beta(0.05)
            .epsilon(1.0);
        if let Some(d) = delta {
            b = b.delta(d);
        }
        b.build().unwrap()
    }

    #[test]
    fn note5_selects_laplace_without_delta() {
        let s = PrivateSjlt::new(&config(None), Seed::new(1)).unwrap();
        assert_eq!(s.general().mechanism().name(), "laplace");
        assert!(s.guarantee().is_pure());
    }

    #[test]
    fn note5_selects_gaussian_for_moderate_delta() {
        let s = PrivateSjlt::new(&config(Some(1e-5)), Seed::new(1)).unwrap();
        assert_eq!(s.general().mechanism().name(), "gaussian");
        assert!(!s.guarantee().is_pure());
    }

    #[test]
    fn gaussian_variant_requires_delta() {
        assert!(matches!(
            PrivateSjlt::with_gaussian(&config(None), Seed::new(1)),
            Err(CoreError::MissingField("delta"))
        ));
    }

    #[test]
    fn sketch_estimate_roundtrip_unbiased() {
        let cfg = config(None);
        let d = cfg.input_dim();
        let x = vec![1.0; d];
        let mut y = vec![1.0; d];
        y[0] = 3.0;
        y[5] = 0.0; // ‖x−y‖² = 4 + 1 = 5
        let mut stats = Summary::new();
        for rep in 0..1200u64 {
            let s = PrivateSjlt::new(&cfg, Seed::new(rep)).unwrap();
            let a = s.sketch(&x, Seed::new(10_000 + rep));
            let b = s.sketch(&y, Seed::new(20_000 + rep));
            stats.push(s.estimate_sq_distance(&a, &b));
        }
        let z = (stats.mean() - 5.0).abs() / stats.stderr();
        assert!(z < 4.0, "bias z {z} (mean {})", stats.mean());
    }

    #[test]
    fn empirical_variance_below_bound() {
        let cfg = config(None);
        let d = cfg.input_dim();
        let x = vec![0.5; d];
        let y = vec![0.0; d];
        let dist_sq = 0.25 * d as f64;
        let mut stats = Summary::new();
        for rep in 0..1500u64 {
            let s = PrivateSjlt::new(&cfg, Seed::new(rep)).unwrap();
            let a = s.sketch(&x, Seed::new(40_000 + rep));
            let b = s.sketch(&y, Seed::new(80_000 + rep));
            stats.push(s.estimate_sq_distance(&a, &b));
        }
        let s0 = PrivateSjlt::new(&cfg, Seed::new(0)).unwrap();
        let bound = s0.variance_bound(dist_sq).predicted_variance;
        assert!(
            stats.variance() <= bound * 1.2,
            "var {} vs bound {bound}",
            stats.variance()
        );
        // The exact form must lower-bound the conservative bound.
        let z: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a - b).collect();
        assert!(s0.exact_variance(&z) <= bound * (1.0 + 1e-9));
    }

    #[test]
    fn incompatible_seeds_refused() {
        let cfg = config(None);
        let s1 = PrivateSjlt::new(&cfg, Seed::new(1)).unwrap();
        let s2 = PrivateSjlt::new(&cfg, Seed::new(2)).unwrap();
        let x = vec![1.0; cfg.input_dim()];
        let a = s1.sketch(&x, Seed::new(5));
        let b = s2.sketch(&x, Seed::new(6));
        assert!(
            a.estimate_sq_distance(&b).is_err(),
            "different public seeds"
        );
    }

    #[test]
    fn laplace_beats_gaussian_below_threshold() {
        // Pick δ well below e^{−s}: Laplace must give lower predicted
        // variance; well above: Gaussian must.
        let cfg = config(None);
        let s = cfg.s();
        let dist_sq = 1.0;
        let k = cfg.k_sjlt();
        let below = (-(s as f64) * 2.0).exp();
        let above = 1e-2;
        let v_lap = var_sjlt_laplace(k, s, 1.0, dist_sq, 0.0);
        assert!(v_lap < var_sjlt_gaussian(k, 1.0, below, dist_sq, 0.0));
        assert!(v_lap > var_sjlt_gaussian(k, 1.0, above, dist_sq, 0.0));
    }
}
