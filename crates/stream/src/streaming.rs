//! Turnstile streaming sketch maintenance (Theorem 3, item 4).
//!
//! A turnstile stream issues updates `x_j ← x_j + w`. Because the sketch
//! is linear, the update changes `Sx` by `w·S_{·,j}`, which touches only
//! [`StreamingColumns::column_nnz`] rows — `s` for the SJLT versus `k`
//! for dense transforms. Noise is added **at release time only**; the
//! running projection is private state of the data owner.
//!
//! A stream built by [`StreamingSketcher::streaming_sketch`] holds a
//! clone of the sketcher's projection. For the SJLT, clones share one
//! lazily resolved column table: an update hashes its column's `s`
//! entries (`O(t·s)` work, nothing stored) until a dense application
//! through the sketcher or any other clone has resolved the table, and
//! reads the table after that. Updates never resolve it themselves, and
//! both sources give the same bits.

use dp_core::error::CoreError;
use dp_core::sketcher::{AnySketcher, PrivateSketcher};
use dp_core::NoisySketch;
use dp_hashing::Seed;
use dp_transforms::{StreamingColumns, TransformError};
use std::fmt;

/// An incrementally maintained (noiseless) projection of a turnstile
/// stream, releasable as a noisy sketch at any point.
pub struct StreamingSketch {
    transform: Box<dyn StreamingColumns + Send + Sync>,
    acc: Vec<f64>,
    tag: String,
    updates: u64,
}

impl fmt::Debug for StreamingSketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamingSketch")
            .field("transform", &self.transform.name())
            .field("tag", &self.tag)
            .field("updates", &self.updates)
            .finish_non_exhaustive()
    }
}

impl StreamingSketch {
    /// Start an empty stream over the given public transform, whose
    /// releases carry `tag`.
    #[must_use]
    pub fn new(transform: impl StreamingColumns + Send + Sync + 'static, tag: String) -> Self {
        Self::over(Box::new(transform), tag)
    }

    fn over(transform: Box<dyn StreamingColumns + Send + Sync>, tag: String) -> Self {
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
    pub fn transform(&self) -> &dyn StreamingColumns {
        self.transform.as_ref()
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
    /// [`CoreError::IncompatibleSketches`] naming both tags if they
    /// differ.
    pub fn merge(&mut self, other: &Self) -> Result<(), CoreError> {
        if self.tag != other.tag {
            return Err(CoreError::IncompatibleSketches(format!(
                "stream tag '{}' vs '{}'",
                self.tag, other.tag
            )));
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

    /// Release through a [`PrivateSketcher`]: the sketcher adds its own
    /// calibrated noise and packages the result under its tag, so the
    /// release interoperates with the sketcher's batch releases. The
    /// sketcher's tag and input dimension together name its public
    /// transform (a tag leaves out `d`), so a sketcher whose tag or
    /// input dimension differs from the stream's (another construction,
    /// seed, shape or `d`) is refused: its noise would be packaged over
    /// a projection of another transform.
    ///
    /// # Errors
    /// [`CoreError::IncompatibleSketches`] naming both tags, or both
    /// input dimensions, when they differ; [`CoreError::Unsupported`]
    /// for input-perturbation constructions.
    pub fn release_via(
        &self,
        sketcher: &dyn PrivateSketcher,
        noise_seed: Seed,
    ) -> Result<NoisySketch, CoreError> {
        if sketcher.tag() != self.tag {
            return Err(CoreError::IncompatibleSketches(format!(
                "stream tag '{}' vs sketcher tag '{}'",
                self.tag,
                sketcher.tag()
            )));
        }
        let d = self.transform.input_dim();
        if sketcher.input_dim() != d {
            return Err(CoreError::IncompatibleSketches(format!(
                "stream input dimension {d} vs sketcher input dimension {}",
                sketcher.input_dim()
            )));
        }
        sketcher.finalize_projection(self.acc.clone(), noise_seed.child("stream-release"))
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
    /// no streaming column access (the FJLT constructions, whose
    /// implicit transform has no per-column form).
    fn streaming_sketch(&self) -> Result<StreamingSketch, CoreError>;
}

/// The stream takes its column transform from the sketcher's output
/// projection: the SJLT (paper Theorem 3 item 4), the Achlioptas sparse
/// ±1 projection, or the Kenthapadi baseline's dense i.i.d. Gaussian,
/// each at its own update cost (`s` rows, about `k/3`, all `k`:
/// streaming the baseline is about API uniformity, not sparsity).
impl StreamingSketcher for AnySketcher {
    fn streaming_sketch(&self) -> Result<StreamingSketch, CoreError> {
        let columns = self
            .general()
            .and_then(|general| general.transform().streaming_columns())
            .ok_or(CoreError::Unsupported(
                "this construction's transform exposes no streaming column access",
            ))?;
        Ok(StreamingSketch::over(columns, self.tag().to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::config::SketchConfig;
    use dp_core::sketcher::{Construction, SigmaCalibration};
    use dp_core::{GenSketcher, Projection};
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
        match a.merge(&b) {
            Err(CoreError::IncompatibleSketches(detail)) => {
                assert!(
                    detail.contains("'tag-a'") && detail.contains("'tag-b'"),
                    "{detail}"
                );
            }
            other => panic!("expected IncompatibleSketches, got {other:?}"),
        }
    }

    /// The sketchers' shared config: d = 64, k = 208 for the SJLT.
    fn config(delta: Option<f64>) -> SketchConfig {
        let mut cfg = SketchConfig::builder()
            .input_dim(64)
            .alpha(0.3)
            .beta(0.1)
            .epsilon(1.0);
        if let Some(delta) = delta {
            cfg = cfg.delta(delta);
        }
        cfg.build().unwrap()
    }

    #[test]
    fn release_is_noisy_and_deterministic_per_seed() {
        let sketcher =
            AnySketcher::new(Construction::SjltLaplace, &config(None), Seed::new(5)).unwrap();
        let mut stream = sketcher.streaming_sketch().unwrap();
        stream.update(0, 1.0).unwrap();
        let r1 = stream.release_via(&sketcher, Seed::new(1)).unwrap();
        let r2 = stream.release_via(&sketcher, Seed::new(1)).unwrap();
        let r3 = stream.release_via(&sketcher, Seed::new(2)).unwrap();
        assert_eq!(r1, r2);
        assert_ne!(r1, r3);
        // Noisy: differs from the raw projection.
        assert_ne!(r1.values(), stream.current_projection());
    }

    #[test]
    fn release_via_sketcher_interoperates_with_batch_release() {
        let sketcher =
            AnySketcher::new(Construction::SjltLaplace, &config(None), Seed::new(5)).unwrap();
        let Some(Projection::Sjlt(transform)) = sketcher.general().map(GenSketcher::transform)
        else {
            panic!("an SJLT construction projects through its SJLT");
        };
        let x: Vec<f64> = (0..64).map(|i| (i % 3) as f64).collect();
        let y = vec![0.0; 64];
        let mut stream = StreamingSketch::new(transform.clone(), sketcher.tag().to_string());
        stream.absorb_dense(&x).unwrap();
        let streamed = stream.release_via(&sketcher, Seed::new(10)).unwrap();
        let batch = sketcher.sketch(&y, Seed::new(11)).unwrap();
        // Same tag, same noise calibration → combinable.
        assert_eq!(streamed.transform_tag(), batch.transform_tag());
        assert!(streamed.estimate_sq_distance(&batch).is_ok());
        // A stream under another tag is refused.
        let short = StreamingSketch::new(sjlt(), "other".into());
        assert!(short.release_via(&sketcher, Seed::new(1)).is_err());
    }

    /// A stream over one public transform never releases through a
    /// sketcher of another with the same `k`: the release would carry
    /// the second sketcher's tag over the first one's projection, and
    /// every estimate against it would be silently wrong. Another seed
    /// changes the tag; another `d` does not (the Kenthapadi baseline's
    /// `k` follows from `α` and `β` alone), so the input dimension is
    /// compared too.
    #[test]
    fn release_via_refuses_a_sketcher_of_another_transform() {
        let kenthapadi = Construction::Kenthapadi(SigmaCalibration::ExactSensitivity);
        let wide = SketchConfig::builder()
            .input_dim(128)
            .alpha(0.3)
            .beta(0.1)
            .epsilon(1.0)
            .delta(1e-6)
            .build()
            .unwrap();
        let sketcher = |construction, cfg: &SketchConfig, seed| {
            AnySketcher::new(construction, cfg, Seed::new(seed)).unwrap()
        };
        let cases = [
            (
                sketcher(Construction::SjltLaplace, &config(None), 5),
                sketcher(Construction::SjltLaplace, &config(None), 6),
            ),
            (
                sketcher(kenthapadi, &config(Some(1e-6)), 5),
                sketcher(kenthapadi, &wide, 5),
            ),
        ];
        for (started, other) in cases {
            assert_eq!(started.k(), other.k());
            let named = if started.tag() == other.tag() {
                [started.input_dim(), other.input_dim()].map(|d| d.to_string())
            } else {
                [started.tag(), other.tag()].map(|tag| format!("'{tag}'"))
            };
            let mut stream = started.streaming_sketch().unwrap();
            stream.update(3, 1.5).unwrap();
            match stream.release_via(&other, Seed::new(1)) {
                Err(CoreError::IncompatibleSketches(detail)) => {
                    for name in named {
                        assert!(detail.contains(&name), "{detail}");
                    }
                }
                other => panic!("expected IncompatibleSketches, got {other:?}"),
            }
            assert!(stream.release_via(&started, Seed::new(1)).is_ok());
        }
    }

    #[test]
    fn sketcher_hands_out_ready_made_stream() {
        let sketcher =
            AnySketcher::new(Construction::SjltLaplace, &config(None), Seed::new(5)).unwrap();
        let mut stream = sketcher.streaming_sketch().unwrap();
        let x: Vec<f64> = (0..64).map(|i| (i % 5) as f64 - 2.0).collect();
        stream.absorb_dense(&x).unwrap();
        // The ready-made stream releases sketches interoperable with —
        // indeed identical to — the sketcher's own.
        let streamed = stream.release_via(&sketcher, Seed::new(9)).unwrap();
        assert_eq!(streamed.transform_tag(), sketcher.tag());
        let direct = sketcher.sketch(&x, Seed::new(11)).unwrap();
        assert!(streamed.estimate_sq_distance(&direct).is_ok());
        // The FJLT constructions refuse with a typed error (the FJLT's
        // implicit transform has no per-column form).
        for construction in [Construction::FjltOutput, Construction::FjltInput] {
            let fjlt = AnySketcher::new(construction, &config(Some(1e-6)), Seed::new(5)).unwrap();
            assert!(matches!(
                fjlt.streaming_sketch(),
                Err(CoreError::Unsupported(_))
            ));
        }
    }

    /// The Kenthapadi baseline's dense columns and the Achlioptas
    /// projection's sparse ones stream like the SJLT's: turnstile
    /// updates (with cancellation) reproduce the sketcher's own
    /// projection, and releases combine with its batch releases.
    #[test]
    fn dense_and_achlioptas_constructions_stream_like_the_sjlt() {
        let cases = [
            (
                Construction::Kenthapadi(SigmaCalibration::ExactSensitivity),
                Some(1e-6),
                "gaussian-iid",
            ),
            (Construction::Achlioptas, None, "achlioptas"),
        ];
        for (construction, delta, name) in cases {
            let sketcher = AnySketcher::new(construction, &config(delta), Seed::new(5)).unwrap();
            let mut stream = sketcher.streaming_sketch().unwrap();
            assert_eq!(stream.transform().name(), name);
            // Dense columns touch all k rows; Achlioptas about k/3.
            assert!(stream.transform().column_nnz() <= sketcher.k());
            let x: Vec<f64> = (0..64).map(|i| (i % 7) as f64 - 3.0).collect();
            for (j, &w) in x.iter().enumerate() {
                stream.update(j, w + 1.0).unwrap();
            }
            for j in 0..64 {
                stream.update(j, -1.0).unwrap();
            }
            let batch = sketcher.project(&x).unwrap();
            for (a, b) in stream.current_projection().iter().zip(&batch) {
                assert!((a - b).abs() < 1e-12, "{name}");
            }
            let streamed = stream.release_via(&sketcher, Seed::new(9)).unwrap();
            let direct = sketcher.sketch(&vec![0.0; 64], Seed::new(11)).unwrap();
            assert_eq!(streamed.transform_tag(), sketcher.tag());
            assert!(streamed.estimate_sq_distance(&direct).is_ok());
        }
        let dense = AnySketcher::new(
            Construction::Kenthapadi(SigmaCalibration::ExactSensitivity),
            &config(Some(1e-6)),
            Seed::new(5),
        )
        .unwrap();
        assert_eq!(
            dense.streaming_sketch().unwrap().transform().column_nnz(),
            dense.k()
        );
    }
}
