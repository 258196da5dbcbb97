//! Round-trip property tests for the sketch wire formats: the versioned
//! binary codec must be the identity under encode→decode (byte-identical
//! on re-encode), and the quantized `f32` framing must change nothing
//! but each value's rounding to the nearest `f32`.

use dp_euclid::core::wire::{
    decode_sketch, decode_sketch_interned, encode_sketch, encode_sketch_f32, encoded_len, fnv1a64,
    TagInterner, CHECKSUM_LEN,
};
use dp_euclid::hashing::{Prng, Seed};
use dp_euclid::prelude::*;

/// Deterministic pseudo-random sketch with awkward values (subnormals,
/// negative zero, huge magnitudes) the codec must carry exactly.
fn random_sketch(seed: u64, k: usize, tag: &str) -> NoisySketch {
    let mut rng = Seed::new(seed).rng();
    let values: Vec<f64> = (0..k)
        .map(|i| match i % 5 {
            0 => -0.0,
            1 => f64::MIN_POSITIVE / 2.0, // subnormal
            2 => -(rng.next_f64()) * 1e300,
            3 => rng.next_f64() * 1e-300,
            _ => rng.next_f64() * 2.0 - 1.0,
        })
        .collect();
    let m2 = rng.next_f64() * 10.0;
    NoisySketch::new(values, tag, m2, 3.0 * m2 * m2)
}

#[test]
fn binary_roundtrip_is_identity() {
    for seed in 0u64..25 {
        let k = 1 + (seed as usize * 7) % 96;
        let tag = format!("sjlt(k={k},seed={seed},noise=laplace)");
        let sketch = random_sketch(seed, k, &tag);
        let bytes = encode_sketch(&sketch).expect("encode");
        assert_eq!(bytes.len(), encoded_len(tag.len(), k));
        let back = decode_sketch(&bytes).expect("decode");
        assert_eq!(sketch, back, "seed {seed}");
        // Bit-exact values, not just PartialEq (which -0.0 == 0.0 hides).
        for (a, b) in sketch.values().iter().zip(back.values()) {
            assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}");
        }
        // Re-encoding is byte-identical.
        assert_eq!(encode_sketch(&back).expect("re-encode"), bytes);
    }
}

#[test]
fn real_releases_roundtrip_through_both_formats() {
    let cfg = SketchConfig::builder()
        .input_dim(64)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(1.0)
        .delta(1e-7)
        .build()
        .expect("config");
    let x: Vec<f64> = (0..64).map(|i| (i as f64).sin()).collect();
    for construction in Construction::all() {
        let sk = AnySketcher::new(construction, &cfg, Seed::new(2)).expect("construct");
        let sketch = sk.sketch(&x, Seed::new(3)).expect("sketch");
        let bytes = encode_sketch(&sketch).expect("encode");
        assert_eq!(decode_sketch(&bytes).expect("decode"), sketch);
        // The f32 frame rounds each value to its nearest f32 and keeps
        // the tag and both noise moments exactly.
        let f32_bytes = encode_sketch_f32(&sketch).expect("encode f32");
        let quantized = decode_sketch(&f32_bytes).expect("decode f32");
        assert_eq!(quantized.transform_tag(), sketch.transform_tag());
        assert_eq!(
            quantized.noise_second_moment().to_bits(),
            sketch.noise_second_moment().to_bits()
        );
        assert_eq!(
            quantized.noise_fourth_moment().to_bits(),
            sketch.noise_fourth_moment().to_bits()
        );
        assert_eq!(quantized.k(), sketch.k(), "{construction:?}");
        for (q, v) in quantized.values().iter().zip(sketch.values()) {
            assert_eq!(
                q.to_bits(),
                f64::from(*v as f32).to_bits(),
                "{construction:?}"
            );
        }
        assert_eq!(encode_sketch_f32(&quantized).expect("re-encode"), f32_bytes);
    }
}

#[test]
fn interned_decoding_still_roundtrips() {
    let mut interner = TagInterner::new();
    let mut blobs = Vec::new();
    for seed in 0..10u64 {
        let sketch = random_sketch(seed, 16, "shared-tag");
        blobs.push((sketch.clone(), encode_sketch(&sketch).expect("encode")));
    }
    for (original, bytes) in &blobs {
        let back = decode_sketch_interned(bytes, &mut interner).expect("decode");
        assert_eq!(&back, original);
    }
    assert_eq!(interner.len(), 1, "all sketches share one interned tag");
}

#[test]
fn corrupted_payloads_never_decode() {
    let sketch = random_sketch(9, 24, "tag");
    let bytes = encode_sketch(&sketch).expect("encode");
    // Every strict prefix fails.
    for cut in 0..bytes.len() {
        assert!(decode_sketch(&bytes[..cut]).is_err(), "prefix {cut}");
    }
    // Declaring more values than present fails (corrupt the k field: it
    // sits right before the values block and the checksum trailer).
    let k_off = bytes.len() - CHECKSUM_LEN - 24 * 8 - 4;
    let mut inflated = bytes.clone();
    inflated[k_off] = inflated[k_off].wrapping_add(1);
    assert!(decode_sketch(&inflated).is_err());
    // Trailing garbage fails.
    let mut padded = bytes;
    padded.extend_from_slice(&[0u8; 3]);
    assert!(decode_sketch(&padded).is_err());
}

#[test]
fn checksum_trailer_guards_every_byte() {
    let sketch = random_sketch(13, 32, "v2-checksummed-tag");
    let bytes = encode_sketch(&sketch).expect("encode");
    // The trailer is the FNV-1a-64 of everything before it.
    let split = bytes.len() - CHECKSUM_LEN;
    let stored = u64::from_le_bytes(bytes[split..].try_into().expect("8 bytes"));
    assert_eq!(stored, fnv1a64(&bytes[..split]));
    // Any single-byte corruption anywhere in the frame must fail decode
    // (header fields fail structurally; payload and trailer bytes fail
    // the checksum comparison).
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x04;
        assert!(decode_sketch(&bad).is_err(), "corrupt byte {i} decoded");
    }
}
