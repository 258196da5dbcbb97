//! Noisy sketches and the debiased estimators built from them.
//!
//! A [`NoisySketch`] is the released object `Sx + η` plus the metadata
//! needed to (a) combine it with another party's sketch and (b) debias the
//! squared norm: the transform identity and the noise second moment
//! `E[η²]`. The estimators implement the paper's constructions:
//!
//! * squared distance: `‖a − b‖² − 2k·E[η²]` (Lemma 3; two independent
//!   noise vectors, hence the factor 2),
//! * squared norm: `‖a‖² − k·E[η²]` (one noise vector),
//! * inner product via the polarization identity that the LPP note
//!   (Definition 4) points out.

use crate::error::CoreError;
use std::sync::Arc;

/// A released, differentially private sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct NoisySketch {
    /// The noisy projection `Sx + η`.
    values: Vec<f64>,
    /// Transform identity tag (name + public seed), used to refuse
    /// combining sketches from different projections. Interned: sketches
    /// released by one sketcher share a single allocation.
    transform_tag: Arc<str>,
    /// Per-coordinate noise second moment `E[η²]` used for debiasing.
    noise_m2: f64,
    /// Per-coordinate noise fourth moment `E[η⁴]` (variance prediction).
    noise_m4: f64,
}

impl NoisySketch {
    /// Package a released sketch.
    #[must_use]
    pub fn new(
        values: Vec<f64>,
        transform_tag: impl Into<Arc<str>>,
        noise_m2: f64,
        noise_m4: f64,
    ) -> Self {
        Self {
            values,
            transform_tag: transform_tag.into(),
            noise_m2,
            noise_m4,
        }
    }

    /// Sketch dimension `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.values.len()
    }

    /// The noisy coordinates.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The transform identity tag.
    #[must_use]
    pub fn transform_tag(&self) -> &str {
        &self.transform_tag
    }

    /// The interned tag handle (cheap to clone into further sketches).
    #[must_use]
    pub fn shared_tag(&self) -> Arc<str> {
        Arc::clone(&self.transform_tag)
    }

    /// `E[η²]` recorded at release time.
    #[must_use]
    pub fn noise_second_moment(&self) -> f64 {
        self.noise_m2
    }

    /// `E[η⁴]` recorded at release time.
    #[must_use]
    pub fn noise_fourth_moment(&self) -> f64 {
        self.noise_m4
    }

    /// Check two sketches can be combined (same transform, k, and noise).
    ///
    /// # Errors
    /// [`CoreError::IncompatibleSketches`] describing the mismatch.
    pub fn check_compatible(&self, other: &Self) -> Result<(), CoreError> {
        // Interned tags usually share the allocation; compare contents
        // only when the pointers differ.
        if !Arc::ptr_eq(&self.transform_tag, &other.transform_tag)
            && self.transform_tag != other.transform_tag
        {
            return Err(CoreError::IncompatibleSketches(format!(
                "transform '{}' vs '{}'",
                self.transform_tag, other.transform_tag
            )));
        }
        if self.k() != other.k() {
            return Err(CoreError::IncompatibleSketches(format!(
                "dimension {} vs {}",
                self.k(),
                other.k()
            )));
        }
        if (self.noise_m2 - other.noise_m2).abs() > 1e-12 * (1.0 + self.noise_m2.abs()) {
            return Err(CoreError::IncompatibleSketches(format!(
                "noise moment {} vs {}",
                self.noise_m2, other.noise_m2
            )));
        }
        Ok(())
    }

    // dp-lint: freeze(estimator-sq-distance) begin
    /// Unbiased estimate of `‖x − y‖²`:
    /// `‖(Sx+η) − (Sy+µ)‖² − 2k·E[η²]` (paper Lemma 3).
    ///
    /// # Errors
    /// [`CoreError::IncompatibleSketches`] if the sketches don't combine.
    pub fn estimate_sq_distance(&self, other: &Self) -> Result<f64, CoreError> {
        self.check_compatible(other)?;
        let raw: f64 = self
            .values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum();
        Ok(raw - 2.0 * self.k() as f64 * self.noise_m2)
    }
    // dp-lint: freeze(estimator-sq-distance) end

    /// Unbiased estimate of `‖x‖²`: `‖Sx + η‖² − k·E[η²]`.
    #[must_use]
    pub fn estimate_sq_norm(&self) -> f64 {
        let raw: f64 = self.values.iter().map(|v| v * v).sum();
        raw - self.k() as f64 * self.noise_m2
    }

    /// Unbiased estimate of `⟨x, y⟩` via polarization:
    /// `(‖x‖² + ‖y‖² − ‖x−y‖²)/2` on the debiased estimates.
    ///
    /// # Errors
    /// [`CoreError::IncompatibleSketches`] if the sketches don't combine.
    pub fn estimate_inner_product(&self, other: &Self) -> Result<f64, CoreError> {
        let dxy = self.estimate_sq_distance(other)?;
        Ok(0.5 * (self.estimate_sq_norm() + other.estimate_sq_norm() - dxy))
    }
}

/// A point estimate with its predicted standard deviation, so callers can
/// report calibrated uncertainty without re-deriving the paper's formulas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceEstimate {
    /// The debiased estimate of `‖x − y‖²`.
    pub estimate: f64,
    /// The predicted variance from the relevant closed form.
    pub predicted_variance: f64,
}

impl DistanceEstimate {
    /// Predicted standard deviation.
    #[must_use]
    pub fn predicted_stddev(&self) -> f64 {
        self.predicted_variance.sqrt()
    }

    /// Clamp the squared-distance estimate at zero (squared distances are
    /// non-negative; noise can push the unbiased estimator below zero).
    #[must_use]
    pub fn clamped(&self) -> f64 {
        self.estimate.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch(values: Vec<f64>, tag: &str, m2: f64) -> NoisySketch {
        NoisySketch::new(values, tag, m2, 3.0 * m2 * m2)
    }

    #[test]
    fn sq_distance_debias() {
        let a = sketch(vec![1.0, 2.0], "t", 0.5);
        let b = sketch(vec![0.0, 0.0], "t", 0.5);
        // raw = 5, debias = 2·2·0.5 = 2.
        assert!((a.estimate_sq_distance(&b).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn sq_norm_debias() {
        let a = sketch(vec![3.0, 4.0], "t", 1.0);
        // raw = 25, debias = 2·1 = 2.
        assert!((a.estimate_sq_norm() - 23.0).abs() < 1e-12);
    }

    #[test]
    fn inner_product_polarization() {
        let a = sketch(vec![1.0, 0.0], "t", 0.0);
        let b = sketch(vec![1.0, 1.0], "t", 0.0);
        // Noiseless: ⟨a,b⟩ on the sketch values = 1.
        assert!((a.estimate_inner_product(&b).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn incompatibility_detected() {
        let a = sketch(vec![1.0], "t1", 0.5);
        let b = sketch(vec![1.0], "t2", 0.5);
        assert!(matches!(
            a.estimate_sq_distance(&b),
            Err(CoreError::IncompatibleSketches(_))
        ));
        let c = sketch(vec![1.0, 2.0], "t1", 0.5);
        assert!(a.estimate_sq_distance(&c).is_err());
        let d = sketch(vec![1.0], "t1", 0.9);
        assert!(a.estimate_sq_distance(&d).is_err());
    }

    #[test]
    fn distance_estimate_helpers() {
        let e = DistanceEstimate {
            estimate: -0.5,
            predicted_variance: 4.0,
        };
        assert_eq!(e.predicted_stddev(), 2.0);
        assert_eq!(e.clamped(), 0.0);
    }
}
