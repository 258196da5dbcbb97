//! Turnstile streaming sketch maintenance (Theorem 3, item 4).
//!
//! A turnstile stream issues updates `x_j ← x_j + w`. Because the sketch
//! is linear, the update changes `Sx` by `w·S_{·,j}`, which touches only
//! [`StreamingColumns::column_nnz`] rows — `s` for the SJLT versus `k`
//! for dense transforms. Noise is added **at release time only**; the
//! running projection is private state of the data owner.
//!
//! A stream built by [`StreamingSketcher::streaming_sketch`] holds a
//! clone of the sketcher's transform. For the SJLT, clones share one
//! lazily resolved column table: an update hashes its column's `s`
//! entries (`O(t·s)` work, nothing stored) until a dense application
//! through the sketcher or any other clone has resolved the table, and
//! reads the table after that. Updates never resolve it themselves, and
//! both sources give the same bits.

use dp_core::error::CoreError;
use dp_core::sketcher::{AnySketcher, PrivateSketcher};
use dp_core::NoisySketch;
use dp_hashing::Seed;
use dp_linalg::SparseVector;
use dp_noise::mechanism::NoiseMechanism;
use dp_transforms::achlioptas::Achlioptas;
use dp_transforms::gaussian_iid::GaussianIid;
use dp_transforms::sjlt::Sjlt;
use dp_transforms::{LinearTransform, StreamingColumns, TransformError};

/// An incrementally maintained (noiseless) projection of a turnstile
/// stream, releasable as a noisy sketch at any point.
#[derive(Debug, Clone)]
pub struct StreamingSketch<T: StreamingColumns> {
    transform: T,
    acc: Vec<f64>,
    tag: String,
    updates: u64,
}

impl<T: StreamingColumns> StreamingSketch<T> {
    /// Start an empty stream over the given public transform.
    #[must_use]
    pub fn new(transform: T, tag: String) -> Self {
        let k = transform.output_dim();
        Self {
            transform,
            acc: vec![0.0; k],
            tag,
            updates: 0,
        }
    }

    /// The public transform.
    #[must_use]
    pub fn transform(&self) -> &T {
        &self.transform
    }

    /// Number of turnstile updates applied.
    #[must_use]
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// Apply `x_j ← x_j + w` in `O(column_nnz)` time.
    ///
    /// # Errors
    /// [`TransformError::DimensionMismatch`] if `j` is out of range.
    pub fn update(&mut self, j: usize, w: f64) -> Result<(), TransformError> {
        let acc = &mut self.acc;
        self.transform
            .for_column(j, &mut |row, v| acc[row] += w * v)?;
        self.updates += 1;
        Ok(())
    }

    /// Bulk-load a dense vector (equivalent to one update per non-zero).
    ///
    /// # Errors
    /// [`TransformError::DimensionMismatch`] on wrong length.
    pub fn absorb_dense(&mut self, x: &[f64]) -> Result<(), TransformError> {
        if x.len() != self.transform.input_dim() {
            return Err(TransformError::DimensionMismatch {
                expected: self.transform.input_dim(),
                actual: x.len(),
            });
        }
        for (j, &w) in x.iter().enumerate() {
            if w != 0.0 {
                self.update(j, w)?;
            }
        }
        Ok(())
    }

    /// Merge another stream over the *same* transform (linearity).
    ///
    /// # Errors
    /// [`TransformError::DimensionMismatch`] if the tags differ.
    pub fn merge(&mut self, other: &Self) -> Result<(), TransformError> {
        if self.tag != other.tag {
            // Reuse DimensionMismatch as "incompatible" signal with the
            // two accumulator lengths — tags differing is the real cause.
            return Err(TransformError::DimensionMismatch {
                expected: self.acc.len(),
                actual: other.acc.len(),
            });
        }
        for (a, b) in self.acc.iter_mut().zip(&other.acc) {
            *a += b;
        }
        self.updates += other.updates;
        Ok(())
    }

    /// The current noiseless projection (NOT private — internal state).
    #[must_use]
    pub fn current_projection(&self) -> &[f64] {
        &self.acc
    }

    /// Release a differentially private sketch of the current state under
    /// an explicitly calibrated mechanism (mechanism-agnostic: any
    /// [`NoiseMechanism`] trait object works).
    #[must_use]
    pub fn release(&self, mechanism: &dyn NoiseMechanism, noise_seed: Seed) -> NoisySketch {
        let mut values = self.acc.clone();
        let mut rng = noise_seed.child("stream-release").rng();
        for v in values.iter_mut() {
            *v += mechanism.sample(&mut rng);
        }
        NoisySketch::new(
            values,
            self.tag.clone(),
            mechanism.second_moment(),
            mechanism.fourth_moment(),
        )
    }

    /// Release through a [`PrivateSketcher`]: the sketcher adds its own
    /// calibrated noise and packages the result under *its* tag, so the
    /// release interoperates with the sketcher's batch releases. The
    /// stream must have been maintained over the same public transform
    /// (same spec) — the sketcher cannot verify that, only the dimension.
    ///
    /// # Errors
    /// [`CoreError::Transform`] on a `k` mismatch;
    /// [`CoreError::Unsupported`] for input-perturbation constructions.
    pub fn release_via(
        &self,
        sketcher: &dyn PrivateSketcher,
        noise_seed: Seed,
    ) -> Result<NoisySketch, CoreError> {
        sketcher.finalize_projection(self.acc.clone(), noise_seed.child("stream-release"))
    }
}

/// Any column-streaming transform a construction can hand a stream
/// over: the SJLT (paper Theorem 3 item 4), the Achlioptas sparse ±1
/// projection, or the Kenthapadi baseline's dense i.i.d. Gaussian. One
/// enum, so [`StreamingSketcher::streaming_sketch`] has a single return
/// type across constructions while the accumulator's update cost stays
/// the underlying transform's (`s` rows for the SJLT, ~`k/3` for
/// Achlioptas, all `k` for the dense Gaussian — streaming the baseline
/// is about API uniformity, not sparsity).
#[derive(Debug, Clone)]
pub enum AnyStreamingTransform {
    /// The Kane–Nelson sparser JL transform.
    Sjlt(Sjlt),
    /// The Achlioptas database-friendly ±1 projection.
    Achlioptas(Achlioptas),
    /// The Kenthapadi baseline's dense i.i.d. `N(0, 1/k)` projection.
    Gaussian(GaussianIid),
}

impl LinearTransform for AnyStreamingTransform {
    fn input_dim(&self) -> usize {
        match self {
            Self::Sjlt(t) => t.input_dim(),
            Self::Achlioptas(t) => t.input_dim(),
            Self::Gaussian(t) => t.input_dim(),
        }
    }

    fn output_dim(&self) -> usize {
        match self {
            Self::Sjlt(t) => t.output_dim(),
            Self::Achlioptas(t) => t.output_dim(),
            Self::Gaussian(t) => t.output_dim(),
        }
    }

    fn apply_into(&self, x: &[f64], out: &mut [f64]) -> Result<(), TransformError> {
        match self {
            Self::Sjlt(t) => t.apply_into(x, out),
            Self::Achlioptas(t) => t.apply_into(x, out),
            Self::Gaussian(t) => t.apply_into(x, out),
        }
    }

    fn apply_sparse(&self, x: &SparseVector) -> Result<Vec<f64>, TransformError> {
        match self {
            Self::Sjlt(t) => t.apply_sparse(x),
            Self::Achlioptas(t) => t.apply_sparse(x),
            Self::Gaussian(t) => t.apply_sparse(x),
        }
    }

    fn l1_sensitivity(&self) -> f64 {
        match self {
            Self::Sjlt(t) => t.l1_sensitivity(),
            Self::Achlioptas(t) => t.l1_sensitivity(),
            Self::Gaussian(t) => t.l1_sensitivity(),
        }
    }

    fn l2_sensitivity(&self) -> f64 {
        match self {
            Self::Sjlt(t) => t.l2_sensitivity(),
            Self::Achlioptas(t) => t.l2_sensitivity(),
            Self::Gaussian(t) => t.l2_sensitivity(),
        }
    }

    fn sensitivity_is_a_priori(&self) -> bool {
        match self {
            Self::Sjlt(t) => t.sensitivity_is_a_priori(),
            Self::Achlioptas(t) => t.sensitivity_is_a_priori(),
            Self::Gaussian(t) => t.sensitivity_is_a_priori(),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Self::Sjlt(t) => t.name(),
            Self::Achlioptas(t) => t.name(),
            Self::Gaussian(t) => t.name(),
        }
    }
}

impl StreamingColumns for AnyStreamingTransform {
    fn column_nnz(&self) -> usize {
        match self {
            Self::Sjlt(t) => t.column_nnz(),
            Self::Achlioptas(t) => t.column_nnz(),
            Self::Gaussian(t) => t.column_nnz(),
        }
    }

    fn for_column(
        &self,
        j: usize,
        visit: &mut dyn FnMut(usize, f64),
    ) -> Result<(), TransformError> {
        match self {
            Self::Sjlt(t) => t.for_column(j, visit),
            Self::Achlioptas(t) => t.for_column(j, visit),
            Self::Gaussian(t) => t.for_column(j, visit),
        }
    }
}

/// Sketchers that hand out a ready-made [`StreamingSketch`] over their
/// own public transform — the stream then interoperates with the
/// sketcher's batch releases by construction (same transform, same tag,
/// same calibration at release time via
/// [`StreamingSketch::release_via`]).
pub trait StreamingSketcher {
    /// An empty streaming accumulator over this sketcher's transform.
    ///
    /// # Errors
    /// [`CoreError::Unsupported`] when the construction's transform has
    /// no streaming column access (today: the FJLT constructions, whose
    /// implicit transform has no per-column form).
    fn streaming_sketch(&self) -> Result<StreamingSketch<AnyStreamingTransform>, CoreError>;
}

impl StreamingSketcher for AnySketcher {
    fn streaming_sketch(&self) -> Result<StreamingSketch<AnyStreamingTransform>, CoreError> {
        let transform = if let Some(sjlt) = self.as_sjlt() {
            AnyStreamingTransform::Sjlt(sjlt.general().transform().clone())
        } else if let Some(achlioptas) = self.as_achlioptas() {
            AnyStreamingTransform::Achlioptas(achlioptas.general().transform().clone())
        } else if let Some(kenthapadi) = self.as_kenthapadi() {
            AnyStreamingTransform::Gaussian(kenthapadi.general().transform().clone())
        } else {
            return Err(CoreError::Unsupported(
                "this construction's transform exposes no streaming column access",
            ));
        };
        Ok(StreamingSketch::new(transform, self.tag().to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_noise::mechanism::{LaplaceMechanism, ZeroNoise};
    use dp_transforms::sjlt::Sjlt;
    use dp_transforms::LinearTransform;

    fn sjlt() -> Sjlt {
        Sjlt::new(32, 16, 4, 6, Seed::new(9)).unwrap()
    }

    #[test]
    fn incremental_matches_batch() {
        let t = sjlt();
        let mut stream = StreamingSketch::new(t.clone(), "tag".into());
        let x: Vec<f64> = (0..32).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        // Apply as interleaved turnstile updates, including cancellations.
        for (j, &w) in x.iter().enumerate() {
            stream.update(j, w + 1.0).unwrap();
        }
        for j in 0..32 {
            stream.update(j, -1.0).unwrap();
        }
        let batch = t.apply(&x).unwrap();
        for (a, b) in stream.current_projection().iter().zip(&batch) {
            assert!((a - b).abs() < 1e-12);
        }
        assert_eq!(stream.update_count(), 64);
    }

    #[test]
    fn absorb_dense_matches_apply() {
        let t = sjlt();
        let mut stream = StreamingSketch::new(t.clone(), "tag".into());
        let x: Vec<f64> = (0..32).map(|i| (i as f64).sin()).collect();
        stream.absorb_dense(&x).unwrap();
        let batch = t.apply(&x).unwrap();
        for (a, b) in stream.current_projection().iter().zip(&batch) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn out_of_range_update_rejected() {
        let mut stream = StreamingSketch::new(sjlt(), "tag".into());
        assert!(stream.update(32, 1.0).is_err());
        assert!(stream.absorb_dense(&[0.0; 31]).is_err());
    }

    #[test]
    fn merge_is_linear() {
        let t = sjlt();
        let mut a = StreamingSketch::new(t.clone(), "tag".into());
        let mut b = StreamingSketch::new(t.clone(), "tag".into());
        a.update(3, 2.0).unwrap();
        b.update(17, -1.0).unwrap();
        a.merge(&b).unwrap();
        let mut whole = StreamingSketch::new(t, "tag".into());
        whole.update(3, 2.0).unwrap();
        whole.update(17, -1.0).unwrap();
        assert_eq!(a.current_projection(), whole.current_projection());
        assert_eq!(a.update_count(), 2);
    }

    #[test]
    fn merge_refuses_different_tags() {
        let mut a = StreamingSketch::new(sjlt(), "tag-a".into());
        let b = StreamingSketch::new(sjlt(), "tag-b".into());
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn release_is_noisy_and_deterministic_per_seed() {
        let mut stream = StreamingSketch::new(sjlt(), "tag".into());
        stream.update(0, 1.0).unwrap();
        let mech = LaplaceMechanism::new(2.0, 1.0).unwrap();
        let r1 = stream.release(&mech, Seed::new(1));
        let r2 = stream.release(&mech, Seed::new(1));
        let r3 = stream.release(&mech, Seed::new(2));
        assert_eq!(r1, r2);
        assert_ne!(r1, r3);
        // Noisy: differs from the raw projection.
        assert_ne!(r1.values(), stream.current_projection());
    }

    #[test]
    fn release_via_sketcher_interoperates_with_batch_release() {
        use dp_core::config::SketchConfig;
        use dp_core::sketcher::{AnySketcher, Construction};
        let cfg = SketchConfig::builder()
            .input_dim(64)
            .alpha(0.3)
            .beta(0.1)
            .epsilon(1.0)
            .build()
            .unwrap();
        let sketcher = AnySketcher::new(Construction::SjltLaplace, &cfg, Seed::new(5)).unwrap();
        let transform = sketcher.as_sjlt().unwrap().general().transform().clone();
        let x: Vec<f64> = (0..64).map(|i| (i % 3) as f64).collect();
        let y = vec![0.0; 64];
        let mut stream = StreamingSketch::new(transform, sketcher.tag().to_string());
        stream.absorb_dense(&x).unwrap();
        let streamed = stream.release_via(&sketcher, Seed::new(10)).unwrap();
        let batch = sketcher.sketch(&y, Seed::new(11)).unwrap();
        // Same tag, same noise calibration → combinable.
        assert_eq!(streamed.transform_tag(), batch.transform_tag());
        assert!(streamed.estimate_sq_distance(&batch).is_ok());
        // Dimension mismatches are refused.
        let short = StreamingSketch::new(sjlt(), "other".into());
        assert!(short.release_via(&sketcher, Seed::new(1)).is_err());
    }

    #[test]
    fn sketcher_hands_out_ready_made_stream() {
        use dp_core::config::SketchConfig;
        use dp_core::sketcher::{AnySketcher, Construction};
        let cfg = SketchConfig::builder()
            .input_dim(64)
            .alpha(0.3)
            .beta(0.1)
            .epsilon(1.0)
            .build()
            .unwrap();
        let sketcher = AnySketcher::new(Construction::SjltLaplace, &cfg, Seed::new(5)).unwrap();
        let mut stream = sketcher.streaming_sketch().unwrap();
        let x: Vec<f64> = (0..64).map(|i| (i % 5) as f64 - 2.0).collect();
        stream.absorb_dense(&x).unwrap();
        // The ready-made stream releases sketches interoperable with —
        // indeed identical to — the sketcher's own.
        let streamed = stream.release_via(&sketcher, Seed::new(9)).unwrap();
        assert_eq!(streamed.transform_tag(), sketcher.tag());
        let direct = sketcher.sketch(&x, Seed::new(11)).unwrap();
        assert!(streamed.estimate_sq_distance(&direct).is_ok());
        // Non-streaming constructions refuse with a typed error (the
        // FJLT's implicit transform has no per-column form).
        let fjlt = AnySketcher::new(
            Construction::FjltOutput,
            &SketchConfig::builder()
                .input_dim(64)
                .alpha(0.3)
                .beta(0.1)
                .epsilon(1.0)
                .delta(1e-6)
                .build()
                .unwrap(),
            Seed::new(5),
        )
        .unwrap();
        assert!(matches!(
            fjlt.streaming_sketch(),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn kenthapadi_construction_streams_through_the_same_enum() {
        use dp_core::config::SketchConfig;
        use dp_core::sketcher::{AnySketcher, Construction};
        let cfg = SketchConfig::builder()
            .input_dim(64)
            .alpha(0.3)
            .beta(0.1)
            .epsilon(1.0)
            .delta(1e-6)
            .build()
            .unwrap();
        let sketcher = AnySketcher::new(
            Construction::Kenthapadi(dp_core::kenthapadi::SigmaCalibration::ExactSensitivity),
            &cfg,
            Seed::new(5),
        )
        .unwrap();
        let mut stream = sketcher.streaming_sketch().unwrap();
        assert!(matches!(
            stream.transform(),
            AnyStreamingTransform::Gaussian(_)
        ));
        // Dense columns: every update touches all k rows.
        assert_eq!(stream.transform().column_nnz(), sketcher.k());
        // Turnstile updates (with cancellation) reproduce the batch
        // projection of the sketcher's own transform.
        let x: Vec<f64> = (0..64).map(|i| (i % 7) as f64 - 3.0).collect();
        for (j, &w) in x.iter().enumerate() {
            stream.update(j, w + 1.0).unwrap();
        }
        for j in 0..64 {
            stream.update(j, -1.0).unwrap();
        }
        let batch = sketcher
            .as_kenthapadi()
            .unwrap()
            .general()
            .transform()
            .apply(&x)
            .unwrap();
        for (a, b) in stream.current_projection().iter().zip(&batch) {
            assert!((a - b).abs() < 1e-12);
        }
        // Releases through the sketcher interoperate with its batch
        // releases: same tag, combinable estimates.
        let streamed = stream.release_via(&sketcher, Seed::new(9)).unwrap();
        let direct = sketcher.sketch(&vec![0.0; 64], Seed::new(11)).unwrap();
        assert_eq!(streamed.transform_tag(), sketcher.tag());
        assert!(streamed.estimate_sq_distance(&direct).is_ok());
    }

    #[test]
    fn achlioptas_construction_streams_like_the_sjlt() {
        use dp_core::config::SketchConfig;
        use dp_core::sketcher::{AnySketcher, Construction};
        let cfg = SketchConfig::builder()
            .input_dim(64)
            .alpha(0.3)
            .beta(0.1)
            .epsilon(1.0)
            .build()
            .unwrap();
        let sketcher = AnySketcher::new(Construction::Achlioptas, &cfg, Seed::new(5)).unwrap();
        let mut stream = sketcher.streaming_sketch().unwrap();
        assert!(matches!(
            stream.transform(),
            AnyStreamingTransform::Achlioptas(_)
        ));
        // Sparse update cost: about k/3 rows per column, never all k.
        assert!(stream.transform().column_nnz() <= sketcher.k());
        let x: Vec<f64> = (0..64).map(|i| (i % 5) as f64 - 2.0).collect();
        // Turnstile updates (with cancellation) reproduce the batch
        // projection of the sketcher's own transform.
        for (j, &w) in x.iter().enumerate() {
            stream.update(j, w + 2.0).unwrap();
        }
        for j in 0..64 {
            stream.update(j, -2.0).unwrap();
        }
        let batch = sketcher
            .as_achlioptas()
            .unwrap()
            .general()
            .transform()
            .apply(&x)
            .unwrap();
        for (a, b) in stream.current_projection().iter().zip(&batch) {
            assert!((a - b).abs() < 1e-12);
        }
        // Releases through the sketcher interoperate with its batch
        // releases: same tag, combinable estimates.
        let streamed = stream.release_via(&sketcher, Seed::new(9)).unwrap();
        let direct = sketcher.sketch(&vec![0.0; 64], Seed::new(11)).unwrap();
        assert_eq!(streamed.transform_tag(), sketcher.tag());
        assert!(streamed.estimate_sq_distance(&direct).is_ok());
    }

    #[test]
    fn zero_noise_release_estimates_distance() {
        let t = sjlt();
        let x: Vec<f64> = (0..32).map(|i| f64::from(u32::from(i % 4 == 0))).collect();
        let y = vec![0.0; 32];
        let mut sx = StreamingSketch::new(t.clone(), "tag".into());
        let mut sy = StreamingSketch::new(t, "tag".into());
        sx.absorb_dense(&x).unwrap();
        sy.absorb_dense(&y).unwrap();
        let a = sx.release(&ZeroNoise, Seed::new(1));
        let b = sy.release(&ZeroNoise, Seed::new(2));
        let est = a.estimate_sq_distance(&b).unwrap();
        let true_d = dp_linalg::vector::sq_distance(&x, &y);
        // Single projection: JL error only.
        assert!((est - true_d).abs() < 0.8 * true_d, "est {est} vs {true_d}");
    }
}
