//! Output-perturbation mechanisms and the paper's noise-selection rule.
//!
//! A [`NoiseMechanism`] bundles a zero-mean noise distribution with the
//! privacy guarantee its calibration provides and with the two moments the
//! estimators consume: `E[η²]` (debias term `2k·E[η²]`) and `E[η⁴]`
//! (the Lemma 3 variance). Concrete mechanisms:
//!
//! * [`LaplaceMechanism`] — Lemma 1: scale `b = ∆₁/ε`, pure ε-DP.
//! * [`GaussianMechanism`] — Lemma 2: `σ = ∆₂·√(2 ln(1.25/δ))/ε`,
//!   (ε,δ)-DP.
//! * [`DiscreteLaplaceMechanism`] / [`DiscreteGaussianMechanism`] — the
//!   §2.3.1 discrete alternatives (for integer-grid queries).
//! * [`ZeroNoise`] — the non-private baseline, so experiments can isolate
//!   the JL error from the noise error.
//!
//! [`select_mechanism`] implements Note 5: Laplace wins when
//! `∆₁ < ∆₂·√(ln(1/δ))`, i.e. `δ < e^{−∆₁²/∆₂²}`.

use crate::discrete_gaussian::DiscreteGaussian;
use crate::discrete_laplace::DiscreteLaplace;
use crate::error::{check_delta, check_epsilon, check_sensitivity, NoiseError};
use crate::gaussian::Gaussian;
use crate::laplace::Laplace;
use crate::privacy::PrivacyGuarantee;
use dp_hashing::Prng;

/// A calibrated zero-mean noise source with a privacy guarantee.
pub trait NoiseMechanism {
    /// Draw one noise value.
    fn sample(&self, rng: &mut dyn Prng) -> f64;

    /// `E[η²]` of one noise coordinate.
    fn second_moment(&self) -> f64;

    /// `E[η⁴]` of one noise coordinate.
    fn fourth_moment(&self) -> f64;

    /// The DP guarantee this calibration provides for a query with the
    /// sensitivity it was calibrated to.
    fn guarantee(&self) -> PrivacyGuarantee;

    /// Short human-readable name for harness output.
    fn name(&self) -> &'static str;

    /// Fill a slice with i.i.d. noise.
    fn fill(&self, out: &mut [f64], rng: &mut dyn Prng) {
        for v in out.iter_mut() {
            *v = self.sample(rng);
        }
    }
}

/// The Laplace mechanism of Lemma 1: `η ~ Lap(∆₁/ε)^k`, pure ε-DP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplaceMechanism {
    dist: Laplace,
    epsilon: f64,
    l1_sensitivity: f64,
}

impl LaplaceMechanism {
    /// Calibrate to ℓ₁-sensitivity `∆₁` and privacy parameter `ε`.
    ///
    /// # Errors
    /// On invalid ε or sensitivity.
    pub fn new(l1_sensitivity: f64, epsilon: f64) -> Result<Self, NoiseError> {
        check_sensitivity(l1_sensitivity)?;
        check_epsilon(epsilon)?;
        Ok(Self {
            dist: Laplace::new(l1_sensitivity / epsilon)?,
            epsilon,
            l1_sensitivity,
        })
    }

    /// The underlying distribution.
    #[must_use]
    pub fn distribution(&self) -> &Laplace {
        &self.dist
    }

    /// The Laplace scale `b = ∆₁/ε`.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.dist.scale()
    }
}

impl NoiseMechanism for LaplaceMechanism {
    fn sample(&self, rng: &mut dyn Prng) -> f64 {
        self.dist.sample(rng)
    }
    fn second_moment(&self) -> f64 {
        self.dist.second_moment()
    }
    fn fourth_moment(&self) -> f64 {
        self.dist.fourth_moment()
    }
    /// Pure ε-DP, under exact real arithmetic. The sampler draws a
    /// continuous Laplace in `f64`, and the gaps between floats leak:
    /// which outputs can occur at all depends on the input, so a
    /// released value can reveal more than ε allows (the paper's
    /// §2.3.1, after Mironov, CCS 2012). Mironov's snapping mechanism
    /// repairs it, but adopting any repair changes release bits, so it
    /// is parked (ROADMAP.md, *Floating-point-safe Laplace releases*).
    fn guarantee(&self) -> PrivacyGuarantee {
        PrivacyGuarantee::Pure {
            epsilon: self.epsilon,
        }
    }
    fn name(&self) -> &'static str {
        "laplace"
    }
}

/// The Gaussian mechanism of Lemma 2:
/// `η ~ N(0, σ²)^k` with `σ = ∆₂·√(2 ln(1.25/δ))/ε`, (ε,δ)-DP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianMechanism {
    dist: Gaussian,
    epsilon: f64,
    delta: f64,
    l2_sensitivity: f64,
}

impl GaussianMechanism {
    /// Calibrate to ℓ₂-sensitivity `∆₂`, `ε`, and `δ` using the classic
    /// `σ = ∆₂·√(2 ln(1.25/δ))/ε` (Dwork & Roth; valid for ε ≤ 1 — we
    /// accept larger ε for experimental sweeps but the guarantee quoted is
    /// the classic one).
    ///
    /// # Errors
    /// On invalid parameters.
    pub fn new(l2_sensitivity: f64, epsilon: f64, delta: f64) -> Result<Self, NoiseError> {
        check_sensitivity(l2_sensitivity)?;
        check_epsilon(epsilon)?;
        check_delta(delta)?;
        let sigma = l2_sensitivity * (2.0 * (1.25 / delta).ln()).sqrt() / epsilon;
        Ok(Self {
            dist: Gaussian::new(sigma)?,
            epsilon,
            delta,
            l2_sensitivity,
        })
    }

    /// Build directly from a σ (for experiments replicating Theorem 1's
    /// `σ ≥ 4/ε·√(log 1/δ)` calibration, or any external rule).
    ///
    /// # Errors
    /// On invalid parameters.
    pub fn with_sigma(sigma: f64, epsilon: f64, delta: f64) -> Result<Self, NoiseError> {
        check_epsilon(epsilon)?;
        check_delta(delta)?;
        Ok(Self {
            dist: Gaussian::new(sigma)?,
            epsilon,
            delta,
            l2_sensitivity: f64::NAN,
        })
    }

    /// The underlying distribution.
    #[must_use]
    pub fn distribution(&self) -> &Gaussian {
        &self.dist
    }

    /// The calibrated standard deviation σ.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.dist.sigma()
    }
}

impl NoiseMechanism for GaussianMechanism {
    fn sample(&self, rng: &mut dyn Prng) -> f64 {
        self.dist.sample(rng)
    }
    fn second_moment(&self) -> f64 {
        self.dist.second_moment()
    }
    fn fourth_moment(&self) -> f64 {
        self.dist.fourth_moment()
    }
    fn guarantee(&self) -> PrivacyGuarantee {
        PrivacyGuarantee::Approx {
            epsilon: self.epsilon,
            delta: self.delta,
        }
    }
    fn name(&self) -> &'static str {
        "gaussian"
    }
    fn fill(&self, out: &mut [f64], rng: &mut dyn Prng) {
        self.dist.fill(out, rng);
    }
}

/// Discrete Laplace mechanism for integer-valued queries of
/// ℓ₁-sensitivity `∆₁`: `t = ∆₁/ε`, pure ε-DP (CKS 2020).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscreteLaplaceMechanism {
    dist: DiscreteLaplace,
    epsilon: f64,
}

impl DiscreteLaplaceMechanism {
    /// Calibrate to integer ℓ₁-sensitivity `∆₁` and `ε`.
    ///
    /// # Errors
    /// On invalid parameters.
    pub fn new(l1_sensitivity: f64, epsilon: f64) -> Result<Self, NoiseError> {
        check_sensitivity(l1_sensitivity)?;
        check_epsilon(epsilon)?;
        Ok(Self {
            dist: DiscreteLaplace::new(l1_sensitivity / epsilon)?,
            epsilon,
        })
    }

    /// The underlying distribution.
    #[must_use]
    pub fn distribution(&self) -> &DiscreteLaplace {
        &self.dist
    }
}

impl NoiseMechanism for DiscreteLaplaceMechanism {
    fn sample(&self, rng: &mut dyn Prng) -> f64 {
        self.dist.sample(rng) as f64
    }
    fn second_moment(&self) -> f64 {
        self.dist.second_moment()
    }
    fn fourth_moment(&self) -> f64 {
        self.dist.fourth_moment()
    }
    fn guarantee(&self) -> PrivacyGuarantee {
        PrivacyGuarantee::Pure {
            epsilon: self.epsilon,
        }
    }
    fn name(&self) -> &'static str {
        "discrete-laplace"
    }
}

/// Discrete Gaussian mechanism for integer-valued queries of
/// ℓ₂-sensitivity `∆₂` (CKS 2020): same σ calibration as the continuous
/// Gaussian mechanism; CKS prove the guarantee carries over (their
/// Theorem 7 gives a slightly tighter bound we conservatively round to the
/// classic one).
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteGaussianMechanism {
    dist: DiscreteGaussian,
    epsilon: f64,
    delta: f64,
}

impl DiscreteGaussianMechanism {
    /// Calibrate to integer ℓ₂-sensitivity `∆₂`, `ε`, `δ`.
    ///
    /// # Errors
    /// On invalid parameters.
    pub fn new(l2_sensitivity: f64, epsilon: f64, delta: f64) -> Result<Self, NoiseError> {
        check_sensitivity(l2_sensitivity)?;
        check_epsilon(epsilon)?;
        check_delta(delta)?;
        let sigma = l2_sensitivity * (2.0 * (1.25 / delta).ln()).sqrt() / epsilon;
        Ok(Self {
            dist: DiscreteGaussian::new(sigma)?,
            epsilon,
            delta,
        })
    }

    /// The underlying distribution.
    #[must_use]
    pub fn distribution(&self) -> &DiscreteGaussian {
        &self.dist
    }
}

impl NoiseMechanism for DiscreteGaussianMechanism {
    fn sample(&self, rng: &mut dyn Prng) -> f64 {
        self.dist.sample(rng) as f64
    }
    fn second_moment(&self) -> f64 {
        self.dist.second_moment()
    }
    fn fourth_moment(&self) -> f64 {
        self.dist.fourth_moment()
    }
    fn guarantee(&self) -> PrivacyGuarantee {
        PrivacyGuarantee::Approx {
            epsilon: self.epsilon,
            delta: self.delta,
        }
    }
    fn name(&self) -> &'static str {
        "discrete-gaussian"
    }
}

/// No noise: the non-private baseline (isolates JL error in experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ZeroNoise;

impl NoiseMechanism for ZeroNoise {
    fn sample(&self, _rng: &mut dyn Prng) -> f64 {
        0.0
    }
    fn second_moment(&self) -> f64 {
        0.0
    }
    fn fourth_moment(&self) -> f64 {
        0.0
    }
    fn guarantee(&self) -> PrivacyGuarantee {
        PrivacyGuarantee::None
    }
    fn name(&self) -> &'static str {
        "none"
    }
}

/// Which mechanism the Note 5 rule selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MechanismChoice {
    /// Laplace noise: `∆₁ ≤ ∆₂·√(ln(1/δ))` (or no δ budget at all).
    Laplace,
    /// Gaussian noise wins on variance.
    Gaussian,
}

/// Note 5: pick the noise distribution minimizing the Lemma 4 variance,
/// `m = min(∆₁, ∆₂·√ln(1/δ))`. `delta = None` means no approximate-DP
/// budget is available, forcing Laplace.
#[must_use]
pub fn select_mechanism(l1: f64, l2: f64, delta: Option<f64>) -> MechanismChoice {
    match delta {
        None => MechanismChoice::Laplace,
        Some(d) => {
            // δ < e^{−∆₁²/∆₂²}  ⇔  ∆₁ < ∆₂·√(ln(1/δ))
            if l1 <= l2 * (1.0 / d).ln().sqrt() {
                MechanismChoice::Laplace
            } else {
                MechanismChoice::Gaussian
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_hashing::{Seed, Xoshiro256pp};

    fn rng() -> Xoshiro256pp {
        Seed::new(0xABCD).rng()
    }

    #[test]
    fn laplace_calibration() {
        let m = LaplaceMechanism::new(2.0, 0.5).unwrap();
        assert!((m.scale() - 4.0).abs() < 1e-12);
        assert!(m.guarantee().is_pure());
        assert!((m.guarantee().epsilon() - 0.5).abs() < 1e-12);
        assert!((m.second_moment() - 32.0).abs() < 1e-9); // 2b² = 32
        assert!((m.fourth_moment() - 24.0 * 256.0).abs() < 1e-6); // 24b⁴
    }

    #[test]
    fn gaussian_calibration_formula() {
        let (d2, eps, delta) = (1.0, 1.0, 1e-5);
        let m = GaussianMechanism::new(d2, eps, delta).unwrap();
        let want = d2 * (2.0 * (1.25 / delta).ln()).sqrt() / eps;
        assert!((m.sigma() - want).abs() < 1e-12);
        assert_eq!(m.guarantee().delta(), delta);
    }

    #[test]
    fn gaussian_sigma_monotone_in_delta() {
        let s1 = GaussianMechanism::new(1.0, 1.0, 1e-3).unwrap().sigma();
        let s2 = GaussianMechanism::new(1.0, 1.0, 1e-9).unwrap().sigma();
        assert!(s2 > s1, "smaller delta needs more noise");
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(LaplaceMechanism::new(0.0, 1.0).is_err());
        assert!(LaplaceMechanism::new(1.0, 0.0).is_err());
        assert!(GaussianMechanism::new(1.0, 1.0, 0.0).is_err());
        assert!(GaussianMechanism::new(1.0, 1.0, 1.5).is_err());
        assert!(DiscreteLaplaceMechanism::new(-1.0, 1.0).is_err());
        assert!(DiscreteGaussianMechanism::new(1.0, f64::NAN, 0.5).is_err());
    }

    #[test]
    fn zero_noise_is_zero() {
        let z = ZeroNoise;
        let mut g = rng();
        assert_eq!(z.sample(&mut g), 0.0);
        assert_eq!(z.second_moment(), 0.0);
        assert_eq!(z.guarantee(), PrivacyGuarantee::None);
    }

    #[test]
    fn fill_matches_moments() {
        let m = GaussianMechanism::new(1.0, 1.0, 1e-6).unwrap();
        let mut g = rng();
        let mut buf = vec![0.0; 200_000];
        m.fill(&mut buf, &mut g);
        let m2: f64 = buf.iter().map(|x| x * x).sum::<f64>() / buf.len() as f64;
        let rel = (m2 - m.second_moment()).abs() / m.second_moment();
        assert!(rel < 0.02, "rel {rel}");
    }

    #[test]
    fn note5_selection_rule() {
        // SJLT case: ∆₁ = √s, ∆₂ = 1 ⇒ Laplace iff δ < e^{−s}.
        let s = 16.0f64;
        let (l1, l2) = (s.sqrt(), 1.0);
        let boundary = (-s).exp();
        assert_eq!(
            select_mechanism(l1, l2, Some(boundary * 0.1)),
            MechanismChoice::Laplace
        );
        assert_eq!(
            select_mechanism(l1, l2, Some(boundary * 10.0)),
            MechanismChoice::Gaussian
        );
        // No δ budget forces Laplace.
        assert_eq!(select_mechanism(l1, l2, None), MechanismChoice::Laplace);
    }

    #[test]
    fn discrete_mechanisms_sample_integers() {
        let mut g = rng();
        let dl = DiscreteLaplaceMechanism::new(1.0, 1.0).unwrap();
        let dg = DiscreteGaussianMechanism::new(1.0, 1.0, 1e-6).unwrap();
        for _ in 0..100 {
            assert_eq!(dl.sample(&mut g).fract(), 0.0);
            assert_eq!(dg.sample(&mut g).fract(), 0.0);
        }
        assert!(dl.guarantee().is_pure());
        assert!(!dg.guarantee().is_pure());
    }

    #[test]
    fn mechanisms_usable_as_trait_objects() {
        let mechs: Vec<Box<dyn NoiseMechanism>> = vec![
            Box::new(LaplaceMechanism::new(1.0, 1.0).unwrap()),
            Box::new(GaussianMechanism::new(1.0, 1.0, 1e-6).unwrap()),
            Box::new(ZeroNoise),
        ];
        let mut g = rng();
        for m in &mechs {
            let v = m.sample(&mut g);
            assert!(v.is_finite());
            assert!(!m.name().is_empty());
        }
    }
}
