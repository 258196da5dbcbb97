//! The private Achlioptas construction: database-friendly sparse ±1
//! projection with output noise.
//!
//! Kenthapadi et al. "state without proof" that their results extend to
//! other LPP transforms; the Achlioptas matrix (paper reference \[1\])
//! is the classic such transform, and the Lemma 3/4 machinery of
//! [`crate::framework`] applies verbatim: entries are i.i.d.
//! `√(3/k)·{±1 w.p. 1/6 each, 0 w.p. 2/3}`, so `E[S²ᵢⱼ] = 1/k` (LPP
//! holds) and `E[S⁴ᵢⱼ] = 3/k²` — the *same* second and fourth moments
//! as the i.i.d. Gaussian transform, which is why
//! [`crate::variance::var_transform_iid`] is its exact transform
//! variance term, not a bound.
//!
//! Unlike the SJLT, the column sensitivities are **not** a priori: they
//! are exact from the stored sparse structure (roughly `k/3` non-zeros
//! per column), read off at construction with no extra scan. Noise
//! follows the natural analogue of the Note 5 rule: **Laplace(∆₁/ε)**
//! (pure ε-DP) when no δ is budgeted, **Gaussian(∆₂·√(2 ln(1.25/δ))/ε)**
//! otherwise. The same pair of candidates as the SJLT's, so the noise
//! side reuses [`SjltNoise`].
//!
//! The transform also exposes streaming column access
//! ([`dp_transforms::StreamingColumns`]), which is what lets
//! `dp_stream`'s `StreamingSketcher` hand out turnstile accumulators
//! for this construction.

use crate::config::SketchConfig;
use crate::error::CoreError;
use crate::estimator::{DistanceEstimate, NoisySketch};
use crate::framework::GenSketcher;
use crate::sjlt_private::SjltNoise;
use crate::sketcher::{identity_of, Construction};
use crate::variance::{lemma3_variance, var_transform_iid};
use dp_hashing::Seed;
use dp_linalg::SparseVector;
use dp_noise::mechanism::{GaussianMechanism, LaplaceMechanism, NoiseMechanism};
use dp_noise::PrivacyGuarantee;
use dp_transforms::achlioptas::Achlioptas;
use dp_transforms::LinearTransform;

/// The private Achlioptas sketcher (sparse ±1 projection + output
/// noise).
#[derive(Debug, Clone)]
pub struct PrivateAchlioptas {
    inner: GenSketcher<Achlioptas, SjltNoise>,
}

impl PrivateAchlioptas {
    /// Build from shared public parameters: Laplace noise under a pure
    /// ε budget, Gaussian when a δ is budgeted. Sensitivities are exact
    /// from the realized sparse structure.
    ///
    /// # Errors
    /// Propagates transform/noise construction failures.
    pub fn new(config: &SketchConfig, transform_seed: Seed) -> Result<Self, CoreError> {
        let identity = identity_of(Construction::Achlioptas, config, transform_seed)?;
        let transform = Achlioptas::new(config.input_dim(), config.k(), transform_seed)
            .map_err(CoreError::Transform)?;
        let mech = match config.delta() {
            None => SjltNoise::Laplace(LaplaceMechanism::new(
                transform.l1_sensitivity(),
                config.epsilon(),
            )?),
            Some(delta) => SjltNoise::Gaussian(GaussianMechanism::new(
                transform.l2_sensitivity(),
                config.epsilon(),
                delta,
            )?),
        };
        Ok(Self {
            inner: GenSketcher::new(transform, mech, identity.tag),
        })
    }

    /// Sketch dimension `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.inner.k()
    }

    /// The released sketches' DP guarantee.
    #[must_use]
    pub fn guarantee(&self) -> PrivacyGuarantee {
        self.inner.guarantee()
    }

    /// The underlying general sketcher (gives access to the
    /// column-streaming transform).
    #[must_use]
    pub fn general(&self) -> &GenSketcher<Achlioptas, SjltNoise> {
        &self.inner
    }

    /// Release a sketch of a dense vector.
    ///
    /// # Errors
    /// [`CoreError::Transform`] on dimension mismatch.
    pub fn sketch(&self, x: &[f64], noise_seed: Seed) -> Result<NoisySketch, CoreError> {
        self.inner.sketch(x, noise_seed)
    }

    /// Release a sketch of a sparse vector through the transform's
    /// column-sparse fast path.
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

    /// The Lemma 3 variance at a hypothetical true squared distance.
    /// Exact in the transform term (Achlioptas entry moments equal the
    /// i.i.d. Gaussian's), exact in the noise moments.
    #[must_use]
    pub fn variance_bound(&self, dist_sq: f64) -> DistanceEstimate {
        let v = lemma3_variance(
            self.k(),
            dist_sq,
            var_transform_iid(self.k(), dist_sq),
            self.inner.mechanism().second_moment(),
            self.inner.mechanism().fourth_moment(),
        );
        DistanceEstimate {
            estimate: dist_sq,
            predicted_variance: v,
        }
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
    fn noise_family_follows_the_budget() {
        let lap = PrivateAchlioptas::new(&config(None), Seed::new(1)).unwrap();
        assert_eq!(lap.general().mechanism().name(), "laplace");
        assert!(lap.guarantee().is_pure());
        let gauss = PrivateAchlioptas::new(&config(Some(1e-6)), Seed::new(1)).unwrap();
        assert_eq!(gauss.general().mechanism().name(), "gaussian");
        assert!(!gauss.guarantee().is_pure());
    }

    #[test]
    fn estimator_is_unbiased() {
        let cfg = config(None);
        let d = cfg.input_dim();
        let x = vec![1.0; d];
        let mut y = vec![1.0; d];
        y[0] = 3.0;
        y[5] = 0.0; // ‖x−y‖² = 4 + 1 = 5
        let mut stats = Summary::new();
        for rep in 0..1200u64 {
            let s = PrivateAchlioptas::new(&cfg, Seed::new(rep)).unwrap();
            let a = s.sketch(&x, Seed::new(10_000 + rep)).unwrap();
            let b = s.sketch(&y, Seed::new(20_000 + rep)).unwrap();
            stats.push(a.estimate_sq_distance(&b).unwrap());
        }
        let z = (stats.mean() - 5.0).abs() / stats.stderr();
        assert!(z < 4.0, "bias z {z} (mean {})", stats.mean());
    }

    #[test]
    fn empirical_variance_tracks_the_prediction() {
        let cfg = config(None);
        let d = cfg.input_dim();
        let x = vec![0.5; d];
        let y = vec![0.0; d];
        let dist_sq = 0.25 * d as f64;
        let mut stats = Summary::new();
        for rep in 0..1500u64 {
            let s = PrivateAchlioptas::new(&cfg, Seed::new(rep)).unwrap();
            let a = s.sketch(&x, Seed::new(40_000 + rep)).unwrap();
            let b = s.sketch(&y, Seed::new(80_000 + rep)).unwrap();
            stats.push(a.estimate_sq_distance(&b).unwrap());
        }
        let predicted = PrivateAchlioptas::new(&cfg, Seed::new(0))
            .unwrap()
            .variance_bound(dist_sq)
            .predicted_variance;
        // The transform term is exact up to the dropped ‖z‖₄⁴
        // sharpening, so empirical variance sits at or below ~1.2×.
        assert!(
            stats.variance() <= predicted * 1.2,
            "var {} vs predicted {predicted}",
            stats.variance()
        );
    }

    #[test]
    fn sparse_and_dense_releases_agree_per_seed() {
        let cfg = config(None);
        let s = PrivateAchlioptas::new(&cfg, Seed::new(3)).unwrap();
        let mut x = vec![0.0; cfg.input_dim()];
        x[7] = 2.0;
        x[40] = -1.0;
        let sv = SparseVector::from_dense(&x);
        let dense = s.sketch(&x, Seed::new(5)).unwrap();
        let sparse = s.sketch_sparse(&sv, Seed::new(5)).unwrap();
        assert_eq!(dense, sparse);
    }
}
