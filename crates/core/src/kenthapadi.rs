//! The Kenthapadi et al. (2013) baseline: i.i.d. Gaussian JL transform
//! with Gaussian output noise (paper Theorems 1–2).
//!
//! Three σ calibrations are exposed, matching the paper's discussion:
//!
//! * [`SigmaCalibration::ExactSensitivity`] — the Note 1 / §2.1.1 fix:
//!   scan the realized `∆₂(P)` (`O(dk)` initialization) and set
//!   `σ = ∆₂·√(2 ln(1.25/δ))/ε` (Lemma 2). This is the sound default.
//! * [`SigmaCalibration::Theorem1`] — the original
//!   `σ = (4/ε)·√(ln(1/δ))`, valid only when `ε < ln(1/δ)` and when the
//!   high-probability bound `∆₂ ≤ 2` holds — the δ "hides" the failure
//!   probability of that bound, the weakness §2.1.1 criticizes.
//! * [`SigmaCalibration::AssumedUnit`] — calibrate as if `∆₂ = 1`
//!   (its expectation). **Not DP in general**: kept (clearly marked) so
//!   experiment E10 can quantify how often the assumption fails.

use crate::config::SketchConfig;
use crate::error::CoreError;
use crate::estimator::{DistanceEstimate, NoisySketch};
use crate::framework::GenSketcher;
use crate::sketcher::{identity_of, Construction};
use crate::variance::var_iid_gaussian;
use dp_hashing::Seed;
use dp_noise::mechanism::GaussianMechanism;
use dp_noise::PrivacyGuarantee;
use dp_transforms::gaussian_iid::GaussianIid;
use dp_transforms::LinearTransform;

/// How to pick σ for the baseline's Gaussian noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigmaCalibration {
    /// Scan `∆₂(P)` exactly and apply Lemma 2 (sound; `O(dk)` init).
    ExactSensitivity,
    /// Kenthapadi Theorem 1: `σ = (4/ε)√(ln 1/δ)`, requires `ε < ln(1/δ)`.
    Theorem1,
    /// Assume `∆₂ = 1` (expectation). Unsound if the realized `∆₂ > 1`;
    /// for experimentation only.
    AssumedUnit,
}

/// The Theorems 1–2 baseline sketcher.
#[derive(Debug, Clone)]
pub struct Kenthapadi {
    inner: GenSketcher<GaussianIid, GaussianMechanism>,
    calibration: SigmaCalibration,
    sound: bool,
}

impl Kenthapadi {
    /// Build the baseline with the chosen σ calibration.
    ///
    /// # Errors
    /// * [`CoreError::MissingField`] without a δ budget;
    /// * [`CoreError::CalibrationPrecondition`] if Theorem 1's
    ///   `ε < ln(1/δ)` fails;
    /// * transform/noise construction failures.
    pub fn new(
        config: &SketchConfig,
        calibration: SigmaCalibration,
        transform_seed: Seed,
    ) -> Result<Self, CoreError> {
        let identity = identity_of(
            Construction::Kenthapadi(calibration),
            config,
            transform_seed,
        )?;
        let delta = config.delta().expect("the identity requires δ");
        let eps = config.epsilon();
        // O(dk) construction incl. the exact sensitivity scan (Note 1).
        let transform = GaussianIid::new(config.input_dim(), config.k(), transform_seed)?;
        let sigma = match calibration {
            SigmaCalibration::ExactSensitivity => None,
            // `identity_of` refused ε ≥ ln(1/δ).
            SigmaCalibration::Theorem1 => Some(4.0 / eps * (1.0 / delta).ln().sqrt()),
            SigmaCalibration::AssumedUnit => Some((2.0 * (1.25f64 / delta).ln()).sqrt() / eps),
        };
        let (mech, sound) = match sigma {
            None => (
                GaussianMechanism::new(transform.l2_sensitivity(), eps, delta)?,
                true,
            ),
            // Sound iff the realized ∆₂ is covered: for Theorem 1, within
            // the ≤2 bound σ was built for (σ ≥ ∆₂ε⁻¹√(2 ln 1.25/δ) with
            // ∆₂ ≤ 2); for the assumed unit ∆₂, at most 1.
            Some(sigma) => {
                let needed =
                    transform.l2_sensitivity() / eps * (2.0 * (1.25f64 / delta).ln()).sqrt();
                (
                    GaussianMechanism::with_sigma(sigma, eps, delta)?,
                    sigma >= needed,
                )
            }
        };
        Ok(Self {
            inner: GenSketcher::new(transform, mech, identity.tag),
            calibration,
            sound,
        })
    }

    /// Sketch dimension `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.inner.k()
    }

    /// The underlying general sketcher.
    #[must_use]
    pub fn general(&self) -> &GenSketcher<GaussianIid, GaussianMechanism> {
        &self.inner
    }

    /// The calibrated σ.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.inner.mechanism().sigma()
    }

    /// Which calibration was used.
    #[must_use]
    pub fn calibration(&self) -> SigmaCalibration {
        self.calibration
    }

    /// Whether the *realized* transform's sensitivity is actually covered
    /// by the calibrated σ (always true for `ExactSensitivity`; may be
    /// false for the other modes — the §2.1.1 criticism made measurable).
    #[must_use]
    pub fn calibration_is_sound(&self) -> bool {
        self.sound
    }

    /// DP guarantee of releases (conditional on
    /// [`Self::calibration_is_sound`] for the non-exact modes).
    #[must_use]
    pub fn guarantee(&self) -> PrivacyGuarantee {
        self.inner.guarantee()
    }

    /// The scanned exact ℓ₂-sensitivity of the realized transform.
    #[must_use]
    pub fn realized_l2_sensitivity(&self) -> f64 {
        self.inner.transform().l2_sensitivity()
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

    /// Theorem 2's exact variance at a hypothetical true distance:
    /// `(2/k)‖z‖⁴ + 8σ²‖z‖² + 8σ⁴k`.
    #[must_use]
    pub fn variance(&self, dist_sq: f64) -> DistanceEstimate {
        DistanceEstimate {
            estimate: dist_sq,
            predicted_variance: var_iid_gaussian(self.k(), self.sigma(), dist_sq),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_stats::Summary;

    fn config() -> SketchConfig {
        SketchConfig::builder()
            .input_dim(48)
            .alpha(0.3)
            .beta(0.1)
            .epsilon(1.0)
            .delta(1e-6)
            .build()
            .unwrap()
    }

    #[test]
    fn requires_delta() {
        let cfg = SketchConfig::builder()
            .input_dim(8)
            .epsilon(1.0)
            .build()
            .unwrap();
        assert!(matches!(
            Kenthapadi::new(&cfg, SigmaCalibration::ExactSensitivity, Seed::new(1)),
            Err(CoreError::MissingField("delta"))
        ));
    }

    #[test]
    fn theorem1_precondition_enforced() {
        let cfg = SketchConfig::builder()
            .input_dim(8)
            .epsilon(20.0) // ≥ ln(1/δ) = ln(1e6) ≈ 13.8
            .delta(1e-6)
            .build()
            .unwrap();
        assert!(matches!(
            Kenthapadi::new(&cfg, SigmaCalibration::Theorem1, Seed::new(1)),
            Err(CoreError::CalibrationPrecondition(_))
        ));
    }

    #[test]
    fn exact_calibration_always_sound() {
        let b =
            Kenthapadi::new(&config(), SigmaCalibration::ExactSensitivity, Seed::new(7)).unwrap();
        assert!(b.calibration_is_sound());
        // σ = ∆₂√(2 ln 1.25/δ)/ε exactly:
        let want = b.realized_l2_sensitivity() * (2.0 * (1.25f64 / 1e-6).ln()).sqrt();
        assert!((b.sigma() - want).abs() < 1e-12);
    }

    #[test]
    fn theorem1_sigma_larger_than_exact() {
        // With ∆₂ ≈ 1, the 4/ε√ln(1/δ) calibration is more conservative
        // than the exact-sensitivity one.
        let cfg = config();
        let t1 = Kenthapadi::new(&cfg, SigmaCalibration::Theorem1, Seed::new(7)).unwrap();
        let ex = Kenthapadi::new(&cfg, SigmaCalibration::ExactSensitivity, Seed::new(7)).unwrap();
        assert!(t1.sigma() > ex.sigma());
        assert!(t1.calibration_is_sound(), "∆₂ well under 2 here");
    }

    #[test]
    fn estimator_unbiased_and_theorem2_variance() {
        let cfg = config();
        let d = cfg.input_dim();
        let x = vec![1.0; d];
        let y = vec![0.0; d];
        let true_d = d as f64;
        let mut stats = Summary::new();
        for rep in 0..1200u64 {
            let b =
                Kenthapadi::new(&cfg, SigmaCalibration::ExactSensitivity, Seed::new(rep)).unwrap();
            let a = b.sketch(&x, Seed::new(3000 + rep)).unwrap();
            let c = b.sketch(&y, Seed::new(7000 + rep)).unwrap();
            stats.push(b.estimate_sq_distance(&a, &c).unwrap());
        }
        let z = (stats.mean() - true_d).abs() / stats.stderr();
        assert!(z < 4.0, "bias z {z}");
        // Theorem 2 variance with the (per-seed varying) σ: use one
        // representative instance for the prediction; tolerance covers
        // the σ spread across seeds.
        let b0 = Kenthapadi::new(&cfg, SigmaCalibration::ExactSensitivity, Seed::new(0)).unwrap();
        let pred = b0.variance(true_d).predicted_variance;
        let rel = (stats.variance() - pred).abs() / pred;
        assert!(rel < 0.35, "var {} vs {pred}", stats.variance());
    }

    #[test]
    fn assumed_unit_soundness_is_data_dependent() {
        // With a healthy k the realized ∆₂ > 1 about half the time is
        // false... just assert the flag is consistent with the scan.
        let b = Kenthapadi::new(&config(), SigmaCalibration::AssumedUnit, Seed::new(3)).unwrap();
        let needed = b.realized_l2_sensitivity() * (2.0 * (1.25f64 / 1e-6).ln()).sqrt();
        assert_eq!(b.calibration_is_sound(), b.sigma() >= needed);
    }
}
