//! Versioned compact binary wire codec for released sketches.
//!
//! JSON (see [`crate::estimator::NoisySketch::to_json`]) is kept as the
//! human-readable compatibility path; this codec is the preferred wire
//! format for the distributed protocol and any sketch service. Layout
//! (all integers and floats little-endian):
//!
//! ```text
//! magic    4 bytes  b"DPNS"
//! version  1 byte   2 (f64 values) or 3 (f32 values)
//! tag_len  2 bytes  u16, length of the transform tag in bytes
//! tag      tag_len  UTF-8 transform identity tag
//! m2       8 bytes  f64, per-coordinate E[η²]
//! m4       8 bytes  f64, per-coordinate E[η⁴]
//! k        4 bytes  u32, number of sketch coordinates
//! values   8k (v2) or 4k (v3) bytes, the noisy projection
//! checksum 8 bytes  u64, FNV-1a-64 over every preceding byte
//! ```
//!
//! Version 2 appended the checksum trailer: [`fnv1a64`] over everything
//! from the magic through the last value, verified at decode time
//! ([`CoreError::ChecksumMismatch`]). FNV catches corruption — bit rot,
//! truncating proxies, misframed streams — not adversaries; frame
//! authenticity, if needed, belongs to the transport layer. Version 1
//! frames (no trailer) are rejected as unsupported.
//!
//! Version 3 ([`WIRE_VERSION_F32`]) is the *quantized* variant: the
//! values travel as `f32` (half the bytes per sketch) while the noise
//! moments stay `f64`. Decoding widens each value back to `f64`
//! losslessly, so a v3 frame round-trips byte-identically; what is lost
//! is the low mantissa of the original release, a per-coordinate
//! rounding error of at most half an f32 ulp — an additive variance the
//! §7-style experiment in `bench_pairwise` measures against the
//! predicted `ulp²/12` model. Every decoder accepts both versions;
//! *sending* v3 is gated on the receiver advertising
//! [`crate::protocol::CAP_SKETCH_F32`].
//!
//! Decoding can intern the tag through a [`TagInterner`], so a service
//! holding millions of sketches from a handful of sketchers stores each
//! distinct tag once (`Arc<str>`), not one `String` per sketch.
//!
//! Codec version 3 ([`crate::protocol`]) added the request/response
//! *conversation* layer on top of these payload frames; sketch (`DPNS`)
//! and release (`DPRL`, [`crate::release`]) payloads themselves remain
//! at version 2 and travel embedded inside v3 frames.

use crate::error::CoreError;
use crate::estimator::NoisySketch;
use std::collections::HashSet;
use std::sync::Arc;

/// Magic prefix of a serialized [`NoisySketch`].
pub const SKETCH_MAGIC: [u8; 4] = *b"DPNS";

/// Current codec version (2: checksum trailer).
pub const WIRE_VERSION: u8 = 2;

/// The quantized codec version (3: `f32` values, `f64` moments).
pub const WIRE_VERSION_F32: u8 = 3;

/// Size in bytes of the checksum trailer.
pub const CHECKSUM_LEN: usize = 8;

// dp-lint: freeze(persisted-digest) begin
//
// Every persisted trailer — `DPNS` sketches, `DPRL` releases, `DPSS`
// store snapshots and journal records — is this FNV-1a-64, so a byte
// moved here would orphan every frame already on disk. The protocol
// frames on the wire use `protocol::frame_digest` instead.

/// FNV-1a 64-bit hash — the persisted frames' checksum. A single
/// corrupted byte in the covered region always changes the digest
/// (each step xors the byte into the state and multiplies by an odd —
/// hence invertible mod 2⁶⁴ — prime).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV1A64_INIT, bytes)
}

/// The FNV-1a-64 offset basis — the initial state for an incremental
/// digest built with [`fnv1a64_update`].
pub const FNV1A64_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold more bytes into a running FNV-1a-64 state. Feeding a byte
/// string in any number of chunks yields the same digest as one
/// [`fnv1a64`] call over the concatenation — the property the
/// streamed summary digests rely on when they fold one part trailer
/// at a time ([`crate::protocol::stream_checksum`]).
#[must_use]
pub fn fnv1a64_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
// dp-lint: freeze(persisted-digest) end

/// Deduplicates transform tags while decoding streams of sketches.
///
/// Cloning an interner clones the `HashSet` of `Arc<str>` handles —
/// the clone shares every tag allocation with the original, which is
/// what snapshot publication wants: a cloned store keeps pointing at
/// the same interned tags.
#[derive(Debug, Default, Clone)]
pub struct TagInterner {
    tags: HashSet<Arc<str>>,
}

impl TagInterner {
    /// Empty interner.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Return the shared handle for `tag`, allocating it at most once.
    pub fn intern(&mut self, tag: &str) -> Arc<str> {
        if let Some(existing) = self.tags.get(tag) {
            Arc::clone(existing)
        } else {
            let owned: Arc<str> = Arc::from(tag);
            self.tags.insert(Arc::clone(&owned));
            owned
        }
    }

    /// Number of distinct tags seen.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether no tag has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }
}

/// Exact serialized size of a sketch with the given tag and dimension.
#[must_use]
pub fn encoded_len(tag_len: usize, k: usize) -> usize {
    4 + 1 + 2 + tag_len + 8 + 8 + 4 + 8 * k + CHECKSUM_LEN
}

/// Exact serialized size of a *quantized* (v3, `f32` values) sketch
/// with the given tag and dimension.
#[must_use]
pub fn encoded_len_f32(tag_len: usize, k: usize) -> usize {
    4 + 1 + 2 + tag_len + 8 + 8 + 4 + 4 * k + CHECKSUM_LEN
}

// dp-lint: freeze(sketch-wire-codec) begin
//
// The byte layout both sketch encoders emit IS the replication
// contract: journaled ingest frames, disk journals, and store
// snapshots all embed these bytes verbatim, so any layout change
// silently corrupts every persisted journal. Bump the wire version and
// add a new encoder instead of editing these.

/// Encode a sketch into the binary wire format.
///
/// # Errors
/// [`CoreError::Wire`] if the tag exceeds `u16::MAX` bytes or the sketch
/// dimension exceeds `u32::MAX` (neither occurs for real configurations).
pub fn encode_sketch(sketch: &NoisySketch) -> Result<Vec<u8>, CoreError> {
    let mut out = encode_header(sketch, WIRE_VERSION, encoded_len)?;
    for v in sketch.values() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    Ok(out)
}

/// Encode a sketch into the quantized v3 wire format: each value is
/// rounded to the nearest `f32` (4 bytes on the wire instead of 8);
/// the noise moments stay `f64`.
///
/// # Errors
/// [`CoreError::Wire`] if the tag or dimension overflow their header
/// fields (as in [`encode_sketch`]), or if rounding a finite value to
/// `f32` overflows to infinity — quantization must never manufacture a
/// frame its own decoder rejects.
pub fn encode_sketch_f32(sketch: &NoisySketch) -> Result<Vec<u8>, CoreError> {
    let mut out = encode_header(sketch, WIRE_VERSION_F32, encoded_len_f32)?;
    for v in sketch.values() {
        let q = *v as f32;
        if !q.is_finite() {
            return Err(CoreError::Wire(format!(
                "sketch coordinate {v:e} overflows f32 quantization"
            )));
        }
        out.extend_from_slice(&q.to_le_bytes());
    }
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    Ok(out)
}

/// Magic through `k` — everything before the values, shared by the two
/// encoders.
fn encode_header(
    sketch: &NoisySketch,
    version: u8,
    len_of: fn(usize, usize) -> usize,
) -> Result<Vec<u8>, CoreError> {
    let tag = sketch.transform_tag().as_bytes();
    let tag_len = u16::try_from(tag.len())
        .map_err(|_| CoreError::Wire(format!("tag too long ({} bytes)", tag.len())))?;
    let k = u32::try_from(sketch.k())
        .map_err(|_| CoreError::Wire(format!("sketch too wide (k = {})", sketch.k())))?;
    let mut out = Vec::with_capacity(len_of(tag.len(), sketch.k()));
    out.extend_from_slice(&SKETCH_MAGIC);
    out.push(version);
    out.extend_from_slice(&tag_len.to_le_bytes());
    out.extend_from_slice(tag);
    out.extend_from_slice(&sketch.noise_second_moment().to_le_bytes());
    out.extend_from_slice(&sketch.noise_fourth_moment().to_le_bytes());
    out.extend_from_slice(&k.to_le_bytes());
    Ok(out)
}
// dp-lint: freeze(sketch-wire-codec) end

/// Decode a sketch, interning nothing (each call allocates its tag).
///
/// # Errors
/// [`CoreError::Wire`] on truncated, mistyped, or wrong-version input.
pub fn decode_sketch(bytes: &[u8]) -> Result<NoisySketch, CoreError> {
    let (sketch, consumed) = decode_sketch_inner(bytes, None)?;
    if consumed != bytes.len() {
        return Err(CoreError::Wire(format!(
            "trailing bytes after sketch ({} of {})",
            consumed,
            bytes.len()
        )));
    }
    Ok(sketch)
}

/// Decode a sketch, sharing tags through `interner`.
///
/// # Errors
/// [`CoreError::Wire`] on malformed input.
pub fn decode_sketch_interned(
    bytes: &[u8],
    interner: &mut TagInterner,
) -> Result<NoisySketch, CoreError> {
    let (sketch, consumed) = decode_sketch_inner(bytes, Some(interner))?;
    if consumed != bytes.len() {
        return Err(CoreError::Wire(format!(
            "trailing bytes after sketch ({} of {})",
            consumed,
            bytes.len()
        )));
    }
    Ok(sketch)
}

/// Decode a sketch from the front of `bytes`, returning it together with
/// the number of bytes consumed (for enclosing framed formats).
///
/// # Errors
/// [`CoreError::Wire`] on malformed input.
pub fn decode_sketch_prefix(
    bytes: &[u8],
    interner: Option<&mut TagInterner>,
) -> Result<(NoisySketch, usize), CoreError> {
    decode_sketch_inner(bytes, interner)
}

fn decode_sketch_inner(
    bytes: &[u8],
    interner: Option<&mut TagInterner>,
) -> Result<(NoisySketch, usize), CoreError> {
    let truncated = || CoreError::Wire("truncated sketch payload".to_string());
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], CoreError> {
        let slice = bytes.get(*pos..*pos + n).ok_or_else(truncated)?;
        *pos += n;
        Ok(slice)
    };

    if take(&mut pos, 4)? != SKETCH_MAGIC {
        return Err(CoreError::Wire(
            "bad magic (not a sketch payload)".to_string(),
        ));
    }
    let version = take(&mut pos, 1)?[0];
    if version != WIRE_VERSION && version != WIRE_VERSION_F32 {
        return Err(CoreError::Wire(format!(
            "unsupported wire version {version} (expected {WIRE_VERSION} or {WIRE_VERSION_F32})"
        )));
    }
    let elem = if version == WIRE_VERSION_F32 { 4 } else { 8 };
    let tag_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().expect("2 bytes")) as usize;
    let tag_bytes = take(&mut pos, tag_len)?;
    let tag_str = std::str::from_utf8(tag_bytes)
        .map_err(|e| CoreError::Wire(format!("tag not UTF-8: {e}")))?;
    let tag: Arc<str> = match interner {
        Some(interner) => interner.intern(tag_str),
        None => Arc::from(tag_str),
    };
    let m2 = f64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
    let m4 = f64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
    if !(m2.is_finite() && m4.is_finite()) {
        return Err(CoreError::Wire(format!(
            "non-finite noise moments on the wire (m2 = {m2}, m4 = {m4})"
        )));
    }
    let k = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
    // Bound the allocation by the bytes actually present: a crafted
    // header must not be able to demand a 32 GB Vec before the first
    // element read fails.
    if bytes.len().saturating_sub(pos) < elem * k {
        return Err(truncated());
    }
    let mut values = Vec::with_capacity(k);
    for _ in 0..k {
        // v3 values widen losslessly from f32; both paths land on f64.
        let v = if version == WIRE_VERSION_F32 {
            f64::from(f32::from_le_bytes(
                take(&mut pos, 4)?.try_into().expect("4 bytes"),
            ))
        } else {
            f64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"))
        };
        if !v.is_finite() {
            return Err(CoreError::Wire(format!(
                "non-finite sketch coordinate on the wire ({v})"
            )));
        }
        values.push(v);
    }
    // Trailer: FNV-1a over every byte of this frame before the checksum.
    let covered_end = pos;
    let stored = u64::from_le_bytes(take(&mut pos, CHECKSUM_LEN)?.try_into().expect("8 bytes"));
    let computed = fnv1a64(&bytes[..covered_end]);
    if stored != computed {
        return Err(CoreError::ChecksumMismatch { stored, computed });
    }
    Ok((NoisySketch::new(values, tag, m2, m4), pos))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NoisySketch {
        NoisySketch::new(vec![1.5, -2.25, 1e-300, 0.0], "sjlt(k=4,seed=7)", 0.5, 0.75)
    }

    #[test]
    fn roundtrip_is_identity() {
        let s = sample();
        let bytes = encode_sketch(&s).unwrap();
        assert_eq!(bytes.len(), encoded_len(s.transform_tag().len(), s.k()));
        let back = decode_sketch(&bytes).unwrap();
        assert_eq!(s, back);
        // Byte-identical re-encode.
        assert_eq!(encode_sketch(&back).unwrap(), bytes);
    }

    #[test]
    fn interner_shares_tags() {
        let s = sample();
        let bytes = encode_sketch(&s).unwrap();
        let mut interner = TagInterner::new();
        let a = decode_sketch_interned(&bytes, &mut interner).unwrap();
        let b = decode_sketch_interned(&bytes, &mut interner).unwrap();
        assert!(Arc::ptr_eq(&a.shared_tag(), &b.shared_tag()));
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn truncation_and_corruption_rejected() {
        let bytes = encode_sketch(&sample()).unwrap();
        for cut in [0, 3, 5, 8, bytes.len() - 1] {
            assert!(decode_sketch(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(decode_sketch(&bad_magic).is_err());
        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert!(decode_sketch(&bad_version).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(decode_sketch(&trailing).is_err());
    }

    #[test]
    fn hostile_headers_rejected_without_allocation() {
        // Header declaring k = u32::MAX with no values present: must be a
        // clean Wire error, not a 32 GB allocation attempt.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SKETCH_MAGIC);
        bytes.push(WIRE_VERSION);
        bytes.extend_from_slice(&0u16.to_le_bytes()); // empty tag
        bytes.extend_from_slice(&0.5f64.to_le_bytes());
        bytes.extend_from_slice(&0.75f64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_sketch(&bytes), Err(CoreError::Wire(_))));
    }

    #[test]
    fn non_finite_wire_fields_rejected() {
        let good = encode_sketch(&sample()).unwrap();
        let tag_len = "sjlt(k=4,seed=7)".len();
        // m2 sits right after magic+version+tag_len+tag.
        let m2_off = 4 + 1 + 2 + tag_len;
        let mut nan_m2 = good.clone();
        nan_m2[m2_off..m2_off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(matches!(decode_sketch(&nan_m2), Err(CoreError::Wire(_))));
        // First value sits after the moments and k.
        let v_off = m2_off + 8 + 8 + 4;
        let mut inf_value = good;
        inf_value[v_off..v_off + 8].copy_from_slice(&f64::INFINITY.to_le_bytes());
        assert!(matches!(decode_sketch(&inf_value), Err(CoreError::Wire(_))));
    }

    #[test]
    fn fnv1a64_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        // Single-byte flip always changes the digest.
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
        // Incremental folding equals the one-shot digest for any split.
        let data = b"streamed tile results";
        for cut in 0..=data.len() {
            let h = fnv1a64_update(fnv1a64_update(FNV1A64_INIT, &data[..cut]), &data[cut..]);
            assert_eq!(h, fnv1a64(data), "cut at {cut}");
        }
    }

    #[test]
    fn checksum_catches_silent_value_corruption() {
        let bytes = encode_sketch(&sample()).unwrap();
        let tag_len = "sjlt(k=4,seed=7)".len();
        // Flip the lowest bit of the first value's mantissa: the value
        // stays finite, so only the v2 trailer can catch it.
        let v_off = 4 + 1 + 2 + tag_len + 8 + 8 + 4;
        let mut corrupted = bytes.clone();
        corrupted[v_off] ^= 1;
        assert!(matches!(
            decode_sketch(&corrupted),
            Err(CoreError::ChecksumMismatch { .. })
        ));
        // A corrupted trailer itself is caught too.
        let mut bad_trailer = bytes;
        let last = bad_trailer.len() - 1;
        bad_trailer[last] ^= 0xff;
        assert!(matches!(
            decode_sketch(&bad_trailer),
            Err(CoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let bytes = encode_sketch(&sample()).unwrap();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(decode_sketch(&bad).is_err(), "corrupt byte {i} decoded");
        }
    }

    #[test]
    fn f32_roundtrip_widens_losslessly() {
        let s = sample();
        let bytes = encode_sketch_f32(&s).unwrap();
        assert_eq!(bytes.len(), encoded_len_f32(s.transform_tag().len(), s.k()));
        // Half the value payload of the f64 frame.
        assert_eq!(
            encode_sketch(&s).unwrap().len() - bytes.len(),
            4 * s.k(),
            "v3 saves exactly 4 bytes per coordinate"
        );
        let back = decode_sketch(&bytes).unwrap();
        assert_eq!(back.k(), s.k());
        assert_eq!(back.transform_tag(), s.transform_tag());
        assert_eq!(back.noise_second_moment(), s.noise_second_moment());
        for (orig, quant) in s.values().iter().zip(back.values()) {
            // Widened value is exactly the f32 rounding of the original.
            assert_eq!(quant.to_bits(), f64::from(*orig as f32).to_bits());
        }
        // A re-encode of the quantized sketch is byte-identical: f64 →
        // f32 is idempotent once the value is f32-representable.
        assert_eq!(encode_sketch_f32(&back).unwrap(), bytes);
    }

    #[test]
    fn f32_every_single_byte_corruption_is_rejected() {
        let bytes = encode_sketch_f32(&sample()).unwrap();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(decode_sketch(&bad).is_err(), "corrupt byte {i} decoded");
        }
    }

    #[test]
    fn f32_overflow_is_refused_at_encode() {
        // Finite in f64, infinite after f32 rounding.
        let s = NoisySketch::new(vec![1e300], "tag", 0.5, 0.75);
        assert!(matches!(encode_sketch_f32(&s), Err(CoreError::Wire(_))));
    }

    #[test]
    fn f32_hostile_header_rejected_without_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SKETCH_MAGIC);
        bytes.push(WIRE_VERSION_F32);
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&0.5f64.to_le_bytes());
        bytes.extend_from_slice(&0.75f64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_sketch(&bytes), Err(CoreError::Wire(_))));
    }

    #[test]
    fn prefix_decode_reports_consumed() {
        let s = sample();
        let mut bytes = encode_sketch(&s).unwrap();
        let len = bytes.len();
        bytes.extend_from_slice(b"suffix");
        let (back, consumed) = decode_sketch_prefix(&bytes, None).unwrap();
        assert_eq!(back, s);
        assert_eq!(consumed, len);
    }
}
