//! The released frame of the distributed protocol: a sketch plus the
//! sender's identity, and its binary wire form.
//!
//! A [`Release`] is what actually crosses a trust boundary: one
//! differentially private [`NoisySketch`] attributed to a `party_id`.
//! The binary layout (all integers little-endian) is
//!
//! ```text
//! magic    4 bytes  b"DPRL"
//! version  1 byte   currently 2
//! party_id 8 bytes  u64
//! sketch   …        an embedded DPNS sketch frame (see [`crate::wire`])
//! checksum 8 bytes  u64, FNV-1a-64 over every preceding byte
//! ```
//!
//! The embedded sketch carries its own v2 trailer; the outer checksum
//! additionally covers the release header, so a corrupted `party_id`
//! cannot silently misattribute a sketch.
//!
//! Every party encodes its release here ([`Release::to_bytes`]), and
//! every consumer of releases — the `dp-engine` sketch store and the
//! `dp-server` protocol — shares one parser and one [`TagInterner`]
//! discipline.

use crate::error::CoreError;
use crate::estimator::NoisySketch;
use crate::wire::{self, TagInterner};

/// Magic prefix of a binary-framed [`Release`].
pub const RELEASE_MAGIC: [u8; 4] = *b"DPRL";

/// The wire format of a release: the sketch plus the sender's id.
#[derive(Debug, Clone, PartialEq)]
pub struct Release {
    /// Sender identity (not private — the protocol releases per-party
    /// sketches publicly).
    pub party_id: u64,
    /// The differentially private sketch.
    pub sketch: NoisySketch,
}

impl Release {
    /// Encode as the compact binary wire format:
    /// `b"DPRL" | version | party_id (u64 LE) | sketch payload |
    /// checksum (u64 LE)`.
    ///
    /// The embedded sketch payload carries its own v2 trailer; the outer
    /// checksum (FNV-1a-64 over every preceding byte of this frame)
    /// additionally covers the release header, so a corrupted
    /// `party_id` cannot silently misattribute a sketch.
    ///
    /// # Errors
    /// Propagates sketch encoding failures.
    pub fn to_bytes(&self) -> Result<Vec<u8>, CoreError> {
        self.frame(wire::encode_sketch(&self.sketch)?)
    }

    /// Like [`Self::to_bytes`], but the embedded sketch uses the
    /// quantized v3 (`f32` values) wire variant — half the bytes per
    /// coordinate. The outer release header is unchanged (still
    /// version 2; the embedded DPNS frame carries its own version
    /// byte), so any v5-era parser accepts both framings. Only ship
    /// this to a peer that advertised
    /// [`crate::protocol::CAP_SKETCH_F32`].
    ///
    /// # Errors
    /// Propagates sketch encoding failures, including values that
    /// overflow `f32` quantization.
    pub fn to_bytes_f32(&self) -> Result<Vec<u8>, CoreError> {
        self.frame(wire::encode_sketch_f32(&self.sketch)?)
    }

    fn frame(&self, sketch: Vec<u8>) -> Result<Vec<u8>, CoreError> {
        let mut out = Vec::with_capacity(4 + 1 + 8 + sketch.len() + wire::CHECKSUM_LEN);
        out.extend_from_slice(&RELEASE_MAGIC);
        out.push(wire::WIRE_VERSION);
        out.extend_from_slice(&self.party_id.to_le_bytes());
        out.extend_from_slice(&sketch);
        let checksum = wire::fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        Ok(out)
    }
}

/// Parse a binary release from the wire, interning the transform tag.
///
/// # Errors
/// [`CoreError::Wire`] on malformed input.
pub fn parse_release_bytes(bytes: &[u8], interner: &mut TagInterner) -> Result<Release, CoreError> {
    let truncated = || CoreError::Wire("truncated release payload".to_string());
    if bytes.get(..4).ok_or_else(truncated)? != RELEASE_MAGIC {
        return Err(CoreError::Wire(
            "bad magic (not a release payload)".to_string(),
        ));
    }
    let version = *bytes.get(4).ok_or_else(truncated)?;
    if version != wire::WIRE_VERSION {
        return Err(CoreError::Wire(format!(
            "unsupported wire version {version} (expected {})",
            wire::WIRE_VERSION
        )));
    }
    let party_id = u64::from_le_bytes(
        bytes
            .get(5..13)
            .ok_or_else(truncated)?
            .try_into()
            .expect("8 bytes"),
    );
    let (sketch, consumed) = wire::decode_sketch_prefix(&bytes[13..], Some(interner))?;
    let covered = 13 + consumed;
    let stored = u64::from_le_bytes(
        bytes
            .get(covered..covered + wire::CHECKSUM_LEN)
            .ok_or_else(truncated)?
            .try_into()
            .expect("8 bytes"),
    );
    let computed = wire::fnv1a64(&bytes[..covered]);
    if stored != computed {
        return Err(CoreError::ChecksumMismatch { stored, computed });
    }
    if covered + wire::CHECKSUM_LEN != bytes.len() {
        return Err(CoreError::Wire("trailing bytes after release".to_string()));
    }
    Ok(Release { party_id, sketch })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(party_id: u64) -> Release {
        Release {
            party_id,
            sketch: NoisySketch::new(vec![1.5, -2.25, 0.0], "sjlt(k=3,seed=7)", 0.5, 0.75),
        }
    }

    #[test]
    fn binary_roundtrip_is_identity() {
        let r = sample(42);
        let bytes = r.to_bytes().unwrap();
        let mut interner = TagInterner::new();
        let back = parse_release_bytes(&bytes, &mut interner).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_bytes().unwrap(), bytes);
    }

    #[test]
    fn f32_framing_roundtrips_quantized() {
        let r = sample(42);
        let bytes = r.to_bytes_f32().unwrap();
        assert_eq!(
            r.to_bytes().unwrap().len() - bytes.len(),
            4 * r.sketch.k(),
            "f32 framing saves 4 bytes per coordinate"
        );
        let mut interner = TagInterner::new();
        let back = parse_release_bytes(&bytes, &mut interner).unwrap();
        assert_eq!(back.party_id, r.party_id);
        for (orig, quant) in r.sketch.values().iter().zip(back.sketch.values()) {
            assert_eq!(quant.to_bits(), f64::from(*orig as f32).to_bits());
        }
        // Sample values are exactly f32-representable, so this
        // particular roundtrip is lossless end to end.
        assert_eq!(back, r);
    }

    #[test]
    fn f32_every_single_byte_corruption_is_rejected() {
        let bytes = sample(3).to_bytes_f32().unwrap();
        let mut interner = TagInterner::new();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                parse_release_bytes(&bad, &mut interner).is_err(),
                "corrupt byte {i} decoded"
            );
        }
    }

    #[test]
    fn release_checksum_covers_the_party_id() {
        let good = sample(7).to_bytes().unwrap();
        let mut interner = TagInterner::new();
        assert!(parse_release_bytes(&good, &mut interner).is_ok());
        // A bit flip in the party_id (bytes 5..13, outside the embedded
        // sketch frame's own trailer) must not silently misattribute the
        // sketch: the outer frame checksum catches it.
        for byte in 5..13 {
            let mut bad = good.clone();
            bad[byte] ^= 0x10;
            assert!(
                matches!(
                    parse_release_bytes(&bad, &mut interner),
                    Err(CoreError::ChecksumMismatch { .. })
                ),
                "party_id byte {byte}"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let bytes = sample(3).to_bytes().unwrap();
        let mut interner = TagInterner::new();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                parse_release_bytes(&bad, &mut interner).is_err(),
                "corrupt byte {i} decoded"
            );
        }
    }
}
