//! Round-trip and corruption tests for the wire protocol frames
//! (`dp_euclid::core::protocol`, currently v7), mirroring the v2
//! sketch-codec suite in `tests/wire_codec.rs`: every frame kind must
//! round-trip identically, re-encode byte-identically, and reject every
//! single-byte corruption; retired kinds must never decode again.

use dp_euclid::core::error::CoreError;
use dp_euclid::core::protocol::{
    decode_request, decode_response, encode_request, encode_response, frame_digest, read_frame,
    write_frame, Request, Response, CAP_SKETCH_F32, CAP_SNAPSHOT, CAP_TILE_STREAM, ERR_BUSY,
    ERR_DUPLICATE_PARTY, ERR_INCOMPATIBLE, ERR_INTERNAL, ERR_KERNEL, ERR_MALFORMED, ERR_PLAN,
    ERR_SPEC, ERR_SPEC_MISMATCH, ERR_UNKNOWN_PARTY, ERR_WORKER, PROTOCOL_VERSION, REQUEST_MAGIC,
    RESPONSE_MAGIC, SNAPSHOT_LAYER_JOURNAL, SNAPSHOT_LAYER_STORE,
};
use dp_euclid::core::release::Release;
use dp_euclid::hashing::Seed;
use dp_euclid::prelude::*;

fn sample_spec() -> SketcherSpec {
    let config = SketchConfig::builder()
        .input_dim(128)
        .alpha(0.25)
        .beta(0.05)
        .epsilon(1.0)
        .build()
        .expect("config");
    SketcherSpec::new(Construction::SjltAuto, config, Seed::new(11))
}

fn sample_release() -> Release {
    let sketcher = sample_spec().build().expect("sketcher");
    Release {
        party_id: 7,
        sketch: sketcher
            .sketch(&vec![1.0; 128], Seed::new(3))
            .expect("sketch"),
    }
}

/// Every request kind, with realistic payloads (a real spec, a real
/// binary release frame).
fn all_requests() -> Vec<Request> {
    vec![
        Request::Hello {
            spec_json: sample_spec().to_json(),
            caps: dp_euclid::core::protocol::CAP_TILE_STREAM,
        },
        Request::Ingest {
            release_frame: sample_release().to_bytes().expect("bytes"),
        },
        Request::Pairwise {
            parties: vec![0, 7, 42],
        },
        Request::Pairwise { parties: vec![] },
        Request::Knn { party: 7, k: 5 },
        Request::TopPairs { t: 3 },
        Request::Shutdown,
        Request::PlanPairwise { tile: 64 },
        Request::ExecuteTilesStream {
            rows: 17,
            tile: 5,
            tile_ids: vec![2, 8],
        },
        Request::FetchSnapshot {
            have_rows: 12,
            part_len: 0,
        },
        Request::SnapshotPart {
            seq: 0,
            layer: SNAPSHOT_LAYER_STORE,
            chunk: vec![0xde, 0xad, 0xbe, 0xef],
        },
        Request::SnapshotPart {
            seq: 3,
            layer: SNAPSHOT_LAYER_JOURNAL,
            chunk: vec![],
        },
        Request::SnapshotSummary {
            generation: 9,
            rows: 12,
            count: 4,
            total_len: 4096,
            checksum: 0xfeed_f00d_dead_beef,
        },
    ]
}

/// Every response kind, with awkward-but-legal values (negative
/// estimates, empty lists, unicode messages).
fn all_responses() -> Vec<Response> {
    vec![
        Response::Hello {
            k: 384,
            rows: 10,
            tag: "sjlt(k=384,s=24,seed=11,noise=laplace)".to_string(),
            caps: dp_euclid::core::protocol::CAP_TILE_STREAM,
        },
        Response::Ingested { row: 9, rows: 10 },
        Response::Pairwise {
            parties: vec![0, 7],
            values: vec![0.0, -1.25, -1.25, 0.0],
        },
        Response::Pairwise {
            parties: vec![],
            values: vec![],
        },
        Response::Knn {
            neighbors: vec![(42, -0.5), (0, 1e300)],
        },
        Response::Knn { neighbors: vec![] },
        Response::TopPairs {
            pairs: vec![(0, 7, -2.0), (7, 42, 3.5)],
        },
        Response::Error {
            code: ERR_UNKNOWN_PARTY,
            message: "party 9 übersehen".to_string(),
        },
        Response::Bye,
        Response::Plan {
            rows: 17,
            tile: 5,
            tile_count: 10,
            pair_count: 136,
        },
        Response::TileResultPart {
            rows: 17,
            tile: 5,
            segment: dp_euclid::core::TileSegment {
                tile_id: 8,
                values: vec![1.5, -0.25, 0.0],
            },
        },
        Response::TileResultSummary {
            rows: 17,
            tile: 5,
            count: 2,
            checksum: 0x0123_4567_89ab_cdef,
        },
        Response::SnapshotPart {
            seq: 1,
            layer: SNAPSHOT_LAYER_JOURNAL,
            chunk: vec![0x01, 0x02],
        },
        Response::SnapshotPart {
            seq: 0,
            layer: SNAPSHOT_LAYER_STORE,
            chunk: vec![],
        },
        Response::SnapshotSummary {
            generation: 5,
            rows: 17,
            count: 3,
            total_len: 12_345,
            checksum: 0x0bad_cafe_1234_5678,
        },
        Response::PairwiseHead {
            parties: vec![42, 0, 7],
            tile: 64,
        },
        Response::PairwiseHead {
            parties: vec![],
            tile: 1,
        },
    ]
}

#[test]
fn every_request_roundtrips_byte_identically() {
    for req in all_requests() {
        let bytes = encode_request(&req).expect("encode");
        let back = decode_request(&bytes).expect("decode");
        assert_eq!(back, req);
        assert_eq!(encode_request(&back).expect("re-encode"), bytes);
    }
}

#[test]
fn every_response_roundtrips_byte_identically() {
    for resp in all_responses() {
        let bytes = encode_response(&resp).expect("encode");
        let back = decode_response(&bytes).expect("decode");
        assert_eq!(back, resp);
        assert_eq!(encode_response(&back).expect("re-encode"), bytes);
    }
}

#[test]
fn every_byte_corruption_of_every_request_is_rejected() {
    for req in all_requests() {
        let bytes = encode_request(&req).expect("encode");
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(decode_request(&bad).is_err(), "{req:?}: byte {i} decoded");
        }
    }
}

#[test]
fn every_byte_corruption_of_every_response_is_rejected() {
    for resp in all_responses() {
        let bytes = encode_response(&resp).expect("encode");
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(decode_response(&bad).is_err(), "{resp:?}: byte {i} decoded");
        }
    }
}

/// Seal a hand-built payload: magic, the current version, `kind`, the
/// body, and the XXH64 trailer — a frame the codec itself can no
/// longer produce.
fn sealed(magic: [u8; 4], kind: u8, body: &[u8]) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.push(PROTOCOL_VERSION);
    out.push(kind);
    out.extend_from_slice(body);
    let checksum = frame_digest(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// A frame as a protocol-v6 peer sealed it: version byte 6 and the
/// FNV-1a-64 trailer v6 used, over the body of `payload` (a current
/// frame).
fn as_v6(payload: &[u8]) -> Vec<u8> {
    let mut out = payload[..payload.len() - 8].to_vec();
    out[4] = 6;
    let checksum = dp_euclid::core::wire::fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// The version byte gates every frame: what a v6 peer sends, in either
/// direction, is refused with the typed version error before its
/// trailer or body is read, so a mixed v6/v7 fleet fails at its first
/// frame.
#[test]
fn a_v6_frame_is_refused_with_the_typed_version_error() {
    assert_eq!(PROTOCOL_VERSION, 7);
    let expected = "unsupported protocol version 6 (expected 7)";
    for req in all_requests() {
        let frame = as_v6(&encode_request(&req).expect("encode"));
        match decode_request(&frame) {
            Err(CoreError::Wire(why)) => assert_eq!(why, expected, "{req:?}"),
            other => panic!("a v6 {req:?} decoded as {other:?}"),
        }
    }
    for resp in all_responses() {
        let frame = as_v6(&encode_response(&resp).expect("encode"));
        match decode_response(&frame) {
            Err(CoreError::Wire(why)) => assert_eq!(why, expected, "{resp:?}"),
            other => panic!("a v6 {resp:?} decoded as {other:?}"),
        }
    }
}

#[test]
fn retired_monolithic_tile_kinds_decode_as_unknown() {
    // The monolithic ExecuteTiles (request kind 8) and TileResult
    // (response kind 9) are retired and reserved: a correctly sealed
    // frame carrying their old body layout (rows, tile, an empty list)
    // is refused as an unknown kind, never decoded as something else.
    let mut body = 17u64.to_le_bytes().to_vec();
    body.extend_from_slice(&5u32.to_le_bytes());
    body.extend_from_slice(&0u32.to_le_bytes());
    match decode_request(&sealed(REQUEST_MAGIC, 8, &body)) {
        Err(CoreError::Wire(why)) => assert!(why.contains("unknown request kind 8"), "{why}"),
        other => panic!("retired request kind 8 decoded: {other:?}"),
    }
    match decode_response(&sealed(RESPONSE_MAGIC, 9, &body)) {
        Err(CoreError::Wire(why)) => assert!(why.contains("unknown response kind 9"), "{why}"),
        other => panic!("retired response kind 9 decoded: {other:?}"),
    }
    // The neighbours stay live: the same body under the streamed
    // request kind decodes.
    assert!(matches!(
        decode_request(&sealed(REQUEST_MAGIC, 9, &body)),
        Ok(Request::ExecuteTilesStream {
            rows: 17,
            tile: 5,
            ..
        })
    ));
}

#[test]
fn truncation_and_direction_confusion_rejected() {
    let req = encode_request(&Request::Knn { party: 1, k: 2 }).expect("encode");
    for cut in 0..req.len() {
        assert!(decode_request(&req[..cut]).is_err(), "cut at {cut}");
    }
    // A request payload is not a response and vice versa.
    assert!(decode_response(&req).is_err());
    let resp = encode_response(&Response::Error {
        code: ERR_DUPLICATE_PARTY,
        message: "dup".to_string(),
    })
    .expect("encode");
    assert!(decode_request(&resp).is_err());
}

#[test]
fn embedded_release_survives_the_protocol_frame() {
    // The nested DPRL frame travels opaquely and decodes to the same
    // release on the far side, through a shared interner.
    let release = sample_release();
    let req = Request::Ingest {
        release_frame: release.to_bytes().expect("bytes"),
    };
    let bytes = encode_request(&req).expect("encode");
    let Request::Ingest { release_frame } = decode_request(&bytes).expect("decode") else {
        panic!("wrong kind");
    };
    let mut interner = dp_euclid::core::wire::TagInterner::new();
    let back = dp_euclid::core::release::parse_release_bytes(&release_frame, &mut interner)
        .expect("nested release");
    assert_eq!(back, release);
}

/// Every error code the protocol defines, in declaration order. A new
/// `ERR_*` const must be added here (and to the README table) — the
/// density assertion below and the dp-lint protocol rule both fail
/// otherwise.
const ALL_ERR_CODES: [(u16, &str); 11] = [
    (ERR_SPEC, "ERR_SPEC"),
    (ERR_SPEC_MISMATCH, "ERR_SPEC_MISMATCH"),
    (ERR_INCOMPATIBLE, "ERR_INCOMPATIBLE"),
    (ERR_DUPLICATE_PARTY, "ERR_DUPLICATE_PARTY"),
    (ERR_UNKNOWN_PARTY, "ERR_UNKNOWN_PARTY"),
    (ERR_MALFORMED, "ERR_MALFORMED"),
    (ERR_INTERNAL, "ERR_INTERNAL"),
    (ERR_PLAN, "ERR_PLAN"),
    (ERR_WORKER, "ERR_WORKER"),
    (ERR_BUSY, "ERR_BUSY"),
    (ERR_KERNEL, "ERR_KERNEL"),
];

#[test]
fn error_codes_are_dense_and_each_roundtrips() {
    // Codes are 1..=N with no gaps or collisions: a new code slots in
    // at the end and never reuses a retired number.
    for (i, (code, name)) in ALL_ERR_CODES.iter().enumerate() {
        assert_eq!(*code, i as u16 + 1, "{name} out of sequence");
    }
    for (code, name) in ALL_ERR_CODES {
        let resp = Response::Error {
            code,
            message: format!("{name} carried verbatim"),
        };
        let bytes = encode_response(&resp).expect("encode");
        let back = decode_response(&bytes).expect("decode");
        assert_eq!(back, resp, "{name}");
    }
}

#[test]
fn corrupting_the_error_code_field_is_rejected() {
    // The u16 code sits at payload bytes 6..8 (magic 4, version 1,
    // kind 1). Flipping it must trip the frame checksum — an error
    // frame that silently mutates into a *different* error would
    // misroute fleet recovery (e.g. ERR_KERNEL → ERR_SPEC_MISMATCH).
    for (code, name) in ALL_ERR_CODES {
        let bytes = encode_response(&Response::Error {
            code,
            message: "x".to_string(),
        })
        .expect("encode");
        for offset in [6usize, 7] {
            let mut bad = bytes.clone();
            bad[offset] ^= 0x01;
            assert!(
                decode_response(&bad).is_err(),
                "{name}: corrupted code byte {offset} decoded"
            );
        }
    }
}

#[test]
fn hello_caps_roundtrip_all_advertised_bits() {
    // Both capability bits survive both directions, independently and
    // together (a dropped bit silently downgrades the connection to
    // the slow path).
    for caps in [
        0,
        CAP_TILE_STREAM,
        CAP_SKETCH_F32,
        CAP_SNAPSHOT,
        CAP_TILE_STREAM | CAP_SKETCH_F32,
        CAP_TILE_STREAM | CAP_SKETCH_F32 | CAP_SNAPSHOT,
    ] {
        let req = Request::Hello {
            spec_json: sample_spec().to_json(),
            caps,
        };
        let bytes = encode_request(&req).expect("encode");
        assert_eq!(decode_request(&bytes).expect("decode"), req);

        let resp = Response::Hello {
            k: 384,
            rows: 0,
            tag: "t".to_string(),
            caps,
        };
        let bytes = encode_response(&resp).expect("encode");
        assert_eq!(decode_response(&bytes).expect("decode"), resp);
    }
}

#[test]
fn stream_framing_roundtrips_mixed_frames() {
    // A realistic conversation written to one buffer and read back.
    let mut buf = Vec::new();
    for req in all_requests() {
        write_frame(&mut buf, &encode_request(&req).expect("encode")).expect("write");
    }
    for resp in all_responses() {
        write_frame(&mut buf, &encode_response(&resp).expect("encode")).expect("write");
    }
    let mut cursor = std::io::Cursor::new(buf);
    for req in all_requests() {
        let payload = read_frame(&mut cursor).expect("read").expect("frame");
        assert_eq!(decode_request(&payload).expect("decode"), req);
    }
    for resp in all_responses() {
        let payload = read_frame(&mut cursor).expect("read").expect("frame");
        assert_eq!(decode_response(&payload).expect("decode"), resp);
    }
    assert!(read_frame(&mut cursor).expect("eof").is_none());
}

/// Floats with awkward bit patterns (signed zeros, subnormals, the
/// extremes) among pseudo-random ones, so a bulk codec that reorders,
/// truncates or canonicalizes any byte changes a digest below.
fn awkward(n: usize, salt: u64) -> Vec<f64> {
    let specials = [
        -0.0,
        0.0,
        f64::MIN_POSITIVE / 4.0,
        -f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        1e-300,
        -2.5,
    ];
    (0..n)
        .map(|i| {
            if i % 97 < specials.len() {
                specials[i % 97]
            } else {
                let x = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt;
                (x >> 11) as f64 / (1u64 << 40) as f64 - 2048.0
            }
        })
        .collect()
}

/// FNV-1a-64 over a response payload without its version byte and its
/// checksum trailer: the magic, the kind and the body.
fn body_digest(bytes: &[u8]) -> u64 {
    let mut covered = bytes[..4].to_vec();
    covered.extend_from_slice(&bytes[5..bytes.len() - 8]);
    dp_euclid::core::wire::fnv1a64(&covered)
}

/// The float-carrying kinds encode exactly the bytes the protocol-v5
/// codec wrote value by value: these lengths and body digests were
/// taken from that codec. Only the version byte (and so the trailer)
/// moved with v6, and only the trailer's digest with v7, which pins
/// each frame's XXH64 trailer in the last column.
#[test]
fn float_carrying_frames_keep_their_v5_bytes() {
    let knn = awkward(24, 3);
    let top = awkward(24, 4);
    let golden = [
        (
            Response::TileResultPart {
                rows: 1824,
                tile: 64,
                segment: dp_euclid::core::TileSegment {
                    tile_id: 17,
                    values: awkward(4096, 1),
                },
            },
            32_806,
            0x9b32_9b41_e53a_07c2u64,
            0x1f1c_1bdf_9093_13da,
        ),
        (
            Response::Pairwise {
                parties: (0..19u64).map(|i| i * 7 + 3).collect(),
                values: awkward(19 * 19, 2),
            },
            3_058,
            0x8aa5_8c68_89e5_13bc,
            0xb38a_2118_a052_2321,
        ),
        (
            Response::Knn {
                neighbors: knn
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| (i as u64 * 11, d))
                    .collect(),
            },
            402,
            0x2c1a_7ff3_b378_e8c5,
            0xf739_2b32_0887_8591,
        ),
        (
            Response::TopPairs {
                pairs: top
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| (i as u64, i as u64 * 5 + 1, d))
                    .collect(),
            },
            594,
            0xd2cb_8c2a_2a00_21ae,
            0x228d_5d2b_6f21_19c4,
        ),
    ];
    for (resp, len, digest, trailer) in golden {
        let bytes = encode_response(&resp).expect("encode");
        assert_eq!(bytes[4], PROTOCOL_VERSION);
        assert_eq!(bytes.len(), len, "{resp:?}");
        assert_eq!(body_digest(&bytes), digest, "{resp:?}");
        let sealed = u64::from_le_bytes(bytes[len - 8..].try_into().expect("8 bytes"));
        assert_eq!(sealed, trailer, "{resp:?}");
        assert_eq!(decode_response(&bytes).expect("decode"), resp);
    }
}
