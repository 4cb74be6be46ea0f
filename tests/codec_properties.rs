//! Property-based tests on the federation payload codecs: round-trip
//! determinism for every codec, quantization error bounds, and
//! hostile-bytes fuzzing (truncation and single-bit flips must produce
//! typed errors, never panics).

use pfdrl::fl::{LayerUpdate, ModelUpdate, PayloadCodec};
use proptest::prelude::*;

/// Arbitrary f64s *by bit pattern* — covers NaN payloads, ±0.0,
/// infinities, and denormals, not just the values proptest's float
/// strategies reach.
fn any_bits_layers() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(0u64..=u64::MAX, 0..24), 1..4)
}

/// Finite, well-scaled parameters (the realistic model-weight case).
fn finite_layers() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-1e3f64..1e3, 1..24), 1..4)
}

fn update_from_bits(layers: &[Vec<u64>]) -> ModelUpdate {
    ModelUpdate {
        sender: 3,
        round: 7,
        model_id: 1,
        layers: layers
            .iter()
            .enumerate()
            .map(|(i, l)| LayerUpdate {
                index: i,
                params: l.iter().map(|&b| f64::from_bits(b)).collect(),
            })
            .collect(),
    }
}

fn update_from_values(layers: &[Vec<f64>]) -> ModelUpdate {
    ModelUpdate {
        sender: 3,
        round: 7,
        model_id: 1,
        layers: layers
            .iter()
            .enumerate()
            .map(|(i, l)| LayerUpdate {
                index: i,
                params: l.clone(),
            })
            .collect(),
    }
}

fn bits_of(u: &ModelUpdate) -> Vec<(usize, Vec<u64>)> {
    u.layers
        .iter()
        .map(|l| (l.index, l.params.iter().map(|p| p.to_bits()).collect()))
        .collect()
}

const ALL_CODECS: [PayloadCodec; 3] = [
    PayloadCodec::Raw,
    PayloadCodec::QuantizedI8 {
        per_layer_scale: true,
    },
    PayloadCodec::QuantizedI8 {
        per_layer_scale: false,
    },
];

proptest! {
    /// Raw encode→decode is bit-exact for *any* f64 bit pattern:
    /// NaN payloads, -0.0, infinities and denormals all survive.
    #[test]
    fn raw_roundtrip_preserves_every_bit_pattern(layers in any_bits_layers()) {
        let u = update_from_bits(&layers);
        let decoded = ModelUpdate::decode(&u.encode()).expect("raw decode");
        prop_assert_eq!(bits_of(&decoded), bits_of(&u));
        prop_assert_eq!(
            (decoded.sender, decoded.round, decoded.model_id),
            (u.sender, u.round, u.model_id)
        );
    }

    /// The codec invariant: decoding a compressed encoding yields
    /// exactly `transform` of the original, bit for bit — and both
    /// sides are deterministic (same input, same bytes, same bits).
    #[test]
    fn decode_of_encode_matches_transform_bitwise_for_every_codec(
        layers in any_bits_layers(),
    ) {
        for codec in ALL_CODECS {
            let u = update_from_bits(&layers);
            let bytes = u.encode_with(codec);
            prop_assert!(bytes == u.encode_with(codec), "encode must be deterministic");
            let decoded = ModelUpdate::decode(&bytes)
                .unwrap_or_else(|e| panic!("{} decode: {e}", codec.label()));
            let mut expected = u.clone();
            codec.transform(&mut expected);
            prop_assert!(
                bits_of(&decoded) == bits_of(&expected),
                "codec {} decode != transform",
                codec.label()
            );
        }
    }

    /// Symmetric int8 quantization error is bounded by scale/2 on
    /// finite inputs (scale = max|x| / 127 per layer), and the
    /// dequantized values are always finite.
    #[test]
    fn q8_error_is_bounded_by_half_scale(layers in finite_layers()) {
        let codec = PayloadCodec::QuantizedI8 { per_layer_scale: true };
        let u = update_from_values(&layers);
        let decoded = ModelUpdate::decode(&u.encode_with(codec)).expect("q8 decode");
        for (orig, got) in u.layers.iter().zip(decoded.layers.iter()) {
            let scale = orig.params.iter().fold(0.0f64, |m, x| m.max(x.abs())) / 127.0;
            for (&x, &y) in orig.params.iter().zip(got.params.iter()) {
                prop_assert!(y.is_finite());
                prop_assert!(
                    (x - y).abs() <= scale / 2.0 + 1e-15,
                    "x={x} y={y} scale={scale}"
                );
            }
        }
    }

    /// Truncating a valid encoding anywhere yields a typed error —
    /// never a panic, never a silently short decode.
    #[test]
    fn truncation_is_rejected_for_every_codec(
        layers in finite_layers(),
        cut_frac in 0.0f64..1.0,
    ) {
        for codec in ALL_CODECS {
            let u = update_from_values(&layers);
            let bytes = u.encode_with(codec);
            let cut = (cut_frac * bytes.len() as f64) as usize;
            prop_assume!(cut < bytes.len());
            prop_assert!(
                ModelUpdate::decode(&bytes[..cut]).is_err(),
                "codec {} accepted a {}-byte prefix of {} bytes",
                codec.label(),
                cut,
                bytes.len()
            );
        }
    }

    /// Flipping any single bit of a valid encoding either still decodes
    /// (the flip hit a value payload) or fails with a typed error — the
    /// decoder has no reachable panic.
    #[test]
    fn single_bit_flips_never_panic(
        layers in finite_layers(),
        byte_frac in 0.0f64..1.0,
        bit in 0usize..8,
    ) {
        for codec in ALL_CODECS {
            let u = update_from_values(&layers);
            let mut bytes = u.encode_with(codec);
            let pos = ((byte_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
            bytes[pos] ^= 1 << bit;
            // Must return, Ok or Err — the property is "no panic, no UB".
            let _ = ModelUpdate::decode(&bytes);
        }
    }
}
