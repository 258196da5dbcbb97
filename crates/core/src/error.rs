//! Unified error type for the core sketch layer.

use dp_noise::NoiseError;
use dp_transforms::TransformError;
use std::fmt;

/// Errors raised when building or using private sketches.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Underlying transform error.
    Transform(TransformError),
    /// Underlying noise/privacy parameter error.
    Noise(NoiseError),
    /// A required configuration field is missing.
    MissingField(&'static str),
    /// Two sketches are not comparable (different transform, k, or noise).
    IncompatibleSketches(String),
    /// A calibration precondition of the paper is violated
    /// (e.g. Theorem 1 requires `ε < ln(1/δ)`).
    CalibrationPrecondition(String),
    /// A wire payload (JSON or binary) could not be encoded or decoded.
    Wire(String),
    /// A binary wire frame's checksum trailer did not match its payload
    /// (corruption in transit or at rest).
    ChecksumMismatch {
        /// The checksum stored in the frame trailer.
        stored: u64,
        /// The checksum recomputed over the received payload.
        computed: u64,
    },
    /// The operation is not defined for this construction (e.g. releasing
    /// a maintained projection under input-perturbation noise).
    Unsupported(&'static str),
    /// A spec names a distance kernel this build does not run (the
    /// retired `v2-simd`, say); carries the name as given. Estimates
    /// over such a spec's releases were computed under other bits, so
    /// it is refused rather than read as `v1-scalar`.
    UnknownKernel(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Transform(e) => write!(f, "transform error: {e}"),
            Self::Noise(e) => write!(f, "noise error: {e}"),
            Self::MissingField(name) => write!(f, "missing configuration field: {name}"),
            Self::IncompatibleSketches(why) => write!(f, "incompatible sketches: {why}"),
            Self::CalibrationPrecondition(why) => {
                write!(f, "calibration precondition violated: {why}")
            }
            Self::Wire(why) => write!(f, "wire format error: {why}"),
            Self::ChecksumMismatch { stored, computed } => write!(
                f,
                "wire checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            Self::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            Self::UnknownKernel(name) => write!(
                f,
                "unknown distance kernel '{name}': this build serves only v1-scalar"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Transform(e) => Some(e),
            Self::Noise(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransformError> for CoreError {
    fn from(e: TransformError) -> Self {
        Self::Transform(e)
    }
}

impl From<NoiseError> for CoreError {
    fn from(e: NoiseError) -> Self {
        Self::Noise(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let t: CoreError = TransformError::InvalidDimensions { d: 0, k: 1 }.into();
        assert!(t.to_string().contains("transform"));
        let n: CoreError = NoiseError::InvalidEpsilon(0.0).into();
        assert!(n.to_string().contains("noise"));
        assert!(CoreError::MissingField("epsilon")
            .to_string()
            .contains("epsilon"));
        assert!(std::error::Error::source(&t).is_some());
        assert!(std::error::Error::source(&CoreError::MissingField("x")).is_none());
    }
}
