//! Wire format for model updates exchanged between residences.
//!
//! The simulation never actually serializes to a network, but every
//! message carries an accurate byte size so communication cost and
//! simulated latency (Figures 13–14: FRL broadcasts twice, PFDRL
//! broadcasts only α layers) are measured, not guessed.

use serde::{Deserialize, Serialize};

/// Parameters of one model layer.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LayerUpdate {
    /// Layer index within the model ([`pfdrl_nn::Layered`] numbering).
    pub index: usize,
    /// Flattened parameters.
    pub params: Vec<f64>,
}

/// A broadcast model update.
///
/// An empty (default) update is a valid pool buffer: the round engine's
/// [`crate::round::UpdatePool`] hands these out and the fill helpers
/// overwrite every field, reusing the layer/parameter allocations.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ModelUpdate {
    /// Sending residence id.
    pub sender: usize,
    /// Federation round counter.
    pub round: u64,
    /// Which model this update belongs to (e.g. a device index for the
    /// forecasters, or a device's DRL agent).
    pub model_id: u64,
    /// The transmitted layers (all layers for plain DFL; the first α for
    /// PFDRL base-layer broadcast).
    pub layers: Vec<LayerUpdate>,
}

/// Header bytes per message (sender + round + model id + counts).
pub const HEADER_BYTES: usize = 32;
/// Bytes per parameter scalar (f64) plus the per-layer index overhead.
pub const LAYER_HEADER_BYTES: usize = 16;

/// Version of the binary wire encoding below. Bumped on any layout
/// change; decoders reject versions they do not know instead of
/// misreading future payloads.
pub const CODEC_VERSION: u16 = 1;
/// Wire version of the symmetric-int8 quantized layer encoding
/// (`index:u64 | len:u64 | scale:f64 | len × i8`).
pub const CODEC_VERSION_Q8: u16 = 2;
/// Highest wire version this build decodes. (Version 3, a top-k
/// sparse layer encoding, was retired; it decodes as unsupported.)
pub const CODEC_VERSION_MAX: u16 = CODEC_VERSION_Q8;

/// Largest int8 scale: `128 × Q8_MAX_SCALE` is exactly `f64::MAX`, so
/// every quant, −128 included, dequantizes to a finite value. Only a
/// layer whose largest |x| exceeds 127/128 of `f64::MAX` is capped.
const Q8_MAX_SCALE: f64 = f64::MAX / 128.0;

/// Lossy uplink compression applied to federation payloads.
///
/// The codec is a run-identity knob (`SimConfig::compression`, hashed
/// into `run_hash`): both modes are deterministic, but `QuantizedI8`
/// changes the parameter bits peers receive, so it carries its own
/// canary. `Raw` is the retained bitwise oracle — wire bytes and
/// merged models are identical to every build before compression
/// existed.
///
/// Compression is uplink-only: home→peer broadcasts, shard uplinks and
/// home→cloud uploads are compressed; the cloud's global-model
/// downlink stays raw f64 (one downlink per round amortizes over N
/// uplinks, and keeping it exact avoids compounding quantization into
/// the reference model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum PayloadCodec {
    /// Raw little-endian f64 layers — today's bytes, bit-identical.
    #[default]
    Raw,
    /// Symmetric int8: `q = round_ties_even(x / scale)` clamped to
    /// ±127 with an f64 `scale = max|x| / 127` per layer (or one
    /// update-global scale when `per_layer_scale` is false), capped at
    /// `f64::MAX / 128`. Non-finite parameters quantize to 0, so decoded
    /// payloads are always finite.
    QuantizedI8 {
        /// One scale per layer (better accuracy) vs one per update
        /// (one fewer f64 per extra layer).
        per_layer_scale: bool,
    },
}

impl PayloadCodec {
    /// Whether this is the bit-identical passthrough mode.
    pub fn is_raw(&self) -> bool {
        matches!(self, PayloadCodec::Raw)
    }

    /// Short stable label for bench rows and CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            PayloadCodec::Raw => "raw",
            PayloadCodec::QuantizedI8 { .. } => "q8",
        }
    }

    /// Wire version this codec encodes to.
    pub fn wire_version(&self) -> u16 {
        match self {
            PayloadCodec::Raw => CODEC_VERSION,
            PayloadCodec::QuantizedI8 { .. } => CODEC_VERSION_Q8,
        }
    }

    /// Accounting bytes of one encoded layer of `len` parameters
    /// (layer header included).
    pub fn wire_layer_bytes(&self, len: usize) -> usize {
        match self {
            PayloadCodec::Raw => LAYER_HEADER_BYTES + 8 * len,
            PayloadCodec::QuantizedI8 { .. } => LAYER_HEADER_BYTES + 8 + len,
        }
    }

    /// Accounting bytes of one encoded layer *excluding* the layer
    /// header — the resident-payload figure `peak_shard_bytes` and
    /// `SimConfig::estimated_update_bytes` count. Exactly `8 * len`
    /// under `Raw`.
    pub fn payload_layer_bytes(&self, len: usize) -> usize {
        self.wire_layer_bytes(len) - LAYER_HEADER_BYTES
    }

    /// Accounting bytes of a full update on the wire under this codec.
    /// Identical to [`ModelUpdate::byte_size`] under `Raw`.
    pub fn wire_update_bytes(&self, update: &ModelUpdate) -> usize {
        match self {
            PayloadCodec::Raw => update.byte_size(),
            _ => {
                HEADER_BYTES
                    + update
                        .layers
                        .iter()
                        .map(|l| self.wire_layer_bytes(l.params.len()))
                        .sum::<usize>()
            }
        }
    }

    /// Applies the codec's lossy map in place: every parameter becomes
    /// exactly the value a peer would decode off the wire. `Raw` is a
    /// no-op; the result is bitwise-equal to
    /// `ModelUpdate::decode(&update.encode_with(codec))`.
    pub fn transform(&self, update: &mut ModelUpdate) {
        match self {
            PayloadCodec::Raw => {}
            PayloadCodec::QuantizedI8 { per_layer_scale } => {
                let scales = q8_scales(update, *per_layer_scale);
                for (layer, &scale) in update.layers.iter_mut().zip(&scales) {
                    for p in layer.params.iter_mut() {
                        *p = q8_quantize(*p, scale) as f64 * scale;
                    }
                }
            }
        }
    }
}

/// Per-layer (or replicated update-global) int8 scales, capped at
/// [`Q8_MAX_SCALE`] (`f64::MAX / 127` rounds up, so an uncapped
/// `127 × scale` would overflow to infinity). Non-finite parameters are
/// excluded from the max, so a single NaN cannot zero out (scale = NaN
/// → everything quantizes to 0) an otherwise healthy layer... it simply
/// quantizes to 0 itself.
fn q8_scales(update: &ModelUpdate, per_layer: bool) -> Vec<f64> {
    let max_abs = |params: &[f64]| {
        params
            .iter()
            .copied()
            .filter(|p| p.is_finite())
            .fold(0.0f64, |acc, p| acc.max(p.abs()))
    };
    if per_layer {
        update
            .layers
            .iter()
            .map(|l| (max_abs(&l.params) / 127.0).min(Q8_MAX_SCALE))
            .collect()
    } else {
        let global = update
            .layers
            .iter()
            .map(|l| max_abs(&l.params))
            .fold(0.0f64, f64::max)
            / 127.0;
        vec![global.min(Q8_MAX_SCALE); update.layers.len()]
    }
}

/// Deterministic symmetric quantization: round-to-nearest-even, ±127
/// clamp, non-finite → 0. A zero (or degenerate) scale maps everything
/// to 0.
fn q8_quantize(x: f64, scale: f64) -> i8 {
    if scale <= 0.0 || !scale.is_finite() || !x.is_finite() {
        return 0;
    }
    (x / scale).round_ties_even().clamp(-127.0, 127.0) as i8
}

/// Typed decode failure for the binary wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload declares a format version this decoder cannot read.
    UnsupportedVersion { found: u16, supported: u16 },
    /// The payload ends before a declared field or layer.
    Truncated { needed: usize, have: usize },
    /// A structurally impossible field (e.g. a layer length that
    /// overflows the payload).
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported codec version {found} (this build reads <= {supported})"
                )
            }
            CodecError::Truncated { needed, have } => {
                write!(f, "truncated payload: needed {needed} bytes, have {have}")
            }
            CodecError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl ModelUpdate {
    /// Accurate size of this update on the wire.
    pub fn byte_size(&self) -> usize {
        HEADER_BYTES
            + self
                .layers
                .iter()
                .map(|l| LAYER_HEADER_BYTES + 8 * l.params.len())
                .sum::<usize>()
    }

    /// Total number of parameter scalars carried.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.params.len()).sum()
    }

    /// Serializes to the versioned binary wire format:
    /// `version:u16 | sender:u64 | round:u64 | model_id:u64 |
    /// n_layers:u32 | (index:u64, len:u64, params:f64*)*`, all
    /// little-endian. Parameters round-trip bit-exactly (including NaN
    /// payloads).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_size() + 2);
        out.extend_from_slice(&CODEC_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sender as u64).to_le_bytes());
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&self.model_id.to_le_bytes());
        out.extend_from_slice(&(self.layers.len() as u32).to_le_bytes());
        for layer in &self.layers {
            out.extend_from_slice(&(layer.index as u64).to_le_bytes());
            out.extend_from_slice(&(layer.params.len() as u64).to_le_bytes());
            for p in &layer.params {
                out.extend_from_slice(&p.to_le_bytes());
            }
        }
        out
    }

    /// Serializes under the given codec: version 1 (`Raw`) or 2
    /// (`QuantizedI8`). The encoded length is always
    /// `codec.wire_update_bytes(self) - 2` (the accounting header
    /// charges 32 B where the physical header is 30), and decoding the
    /// result reproduces `codec.transform(self)` bit-for-bit.
    pub fn encode_with(&self, codec: PayloadCodec) -> Vec<u8> {
        let mut out = Vec::with_capacity(codec.wire_update_bytes(self));
        out.extend_from_slice(&codec.wire_version().to_le_bytes());
        out.extend_from_slice(&(self.sender as u64).to_le_bytes());
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&self.model_id.to_le_bytes());
        out.extend_from_slice(&(self.layers.len() as u32).to_le_bytes());
        match codec {
            PayloadCodec::Raw => {
                for layer in &self.layers {
                    out.extend_from_slice(&(layer.index as u64).to_le_bytes());
                    out.extend_from_slice(&(layer.params.len() as u64).to_le_bytes());
                    for p in &layer.params {
                        out.extend_from_slice(&p.to_le_bytes());
                    }
                }
            }
            PayloadCodec::QuantizedI8 { per_layer_scale } => {
                let scales = q8_scales(self, per_layer_scale);
                for (layer, &scale) in self.layers.iter().zip(&scales) {
                    out.extend_from_slice(&(layer.index as u64).to_le_bytes());
                    out.extend_from_slice(&(layer.params.len() as u64).to_le_bytes());
                    out.extend_from_slice(&scale.to_le_bytes());
                    for &p in &layer.params {
                        out.push(q8_quantize(p, scale) as u8);
                    }
                }
            }
        }
        out
    }

    /// Decodes a payload produced by [`ModelUpdate::encode`] or
    /// [`ModelUpdate::encode_with`]. Quantized (v2) layers are
    /// dequantized, so the result is always a dense f64 update ready for
    /// [`crate::merge_updates`].
    ///
    /// # Errors
    /// [`CodecError::UnsupportedVersion`] on a version this build does
    /// not know, [`CodecError::Truncated`]/[`CodecError::Malformed`] on
    /// damaged payloads (a quantization scale that is negative,
    /// non-finite or above the encoder's cap included) — never a panic,
    /// and allocations stay bounded by the payload.
    pub fn decode(bytes: &[u8]) -> Result<ModelUpdate, CodecError> {
        let mut r = ByteReader::new(bytes);
        let version = r.u16()?;
        if version == 0 || version > CODEC_VERSION_MAX {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                supported: CODEC_VERSION_MAX,
            });
        }
        let sender = r.u64()? as usize;
        let round = r.u64()?;
        let model_id = r.u64()?;
        let n_layers = r.u32()? as usize;
        let mut layers = Vec::with_capacity(n_layers.min(r.remaining() / LAYER_HEADER_BYTES + 1));
        for _ in 0..n_layers {
            let index = r.u64()? as usize;
            let len = r.u64()?;
            let len = usize::try_from(len).map_err(|_| CodecError::Malformed("layer length"))?;
            let params = if version == CODEC_VERSION {
                r.f64s(len)?
            } else {
                let scale = r.f64()?;
                // NaN fails the range check too.
                if !(0.0..=Q8_MAX_SCALE).contains(&scale) {
                    return Err(CodecError::Malformed("quantization scale"));
                }
                let quants = r.bytes(len)?;
                quants.iter().map(|&q| (q as i8) as f64 * scale).collect()
            };
            layers.push(LayerUpdate { index, params });
        }
        if r.remaining() != 0 {
            return Err(CodecError::Malformed("trailing bytes"));
        }
        Ok(ModelUpdate {
            sender,
            round,
            model_id,
            layers,
        })
    }
}

/// Minimal bounds-checked little-endian reader.
struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, CodecError> {
        // Bound the allocation by what the payload can actually hold,
        // so a corrupted length cannot trigger a huge reservation.
        if self.remaining() / 8 < n {
            return Err(CodecError::Truncated {
                needed: n.saturating_mul(8),
                have: self.remaining(),
            });
        }
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(layer_sizes: &[usize]) -> ModelUpdate {
        ModelUpdate {
            sender: 0,
            round: 1,
            model_id: 0,
            layers: layer_sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| LayerUpdate {
                    index: i,
                    params: vec![0.0; n],
                })
                .collect(),
        }
    }

    #[test]
    fn byte_size_counts_params_and_headers() {
        let u = update(&[10, 5]);
        assert_eq!(u.byte_size(), 32 + (16 + 80) + (16 + 40));
        assert_eq!(u.param_count(), 15);
    }

    #[test]
    fn empty_update_is_header_only() {
        let u = update(&[]);
        assert_eq!(u.byte_size(), HEADER_BYTES);
    }

    #[test]
    fn fewer_layers_means_fewer_bytes() {
        // The PFDRL saving: broadcasting alpha < total layers shrinks
        // messages.
        let full = update(&[100, 100, 100, 100]);
        let partial = update(&[100, 100]);
        assert!(partial.byte_size() < full.byte_size());
    }

    #[test]
    fn model_update_serde_round_trips() {
        let original = ModelUpdate {
            sender: 7,
            round: 42,
            model_id: 3,
            layers: vec![
                LayerUpdate {
                    index: 0,
                    params: vec![1.5, -2.25, 0.0],
                },
                LayerUpdate {
                    index: 1,
                    params: vec![3.125],
                },
            ],
        };
        let json = serde_json::to_string(&original).expect("serialize");
        let back: ModelUpdate = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, original);
        assert_eq!(back.byte_size(), original.byte_size());
    }

    #[test]
    fn binary_codec_round_trips_bit_exactly() {
        let mut original = update(&[3, 1]);
        original.sender = 9;
        original.round = 77;
        original.model_id = 2;
        original.layers[0].params = vec![1.5, f64::NAN, f64::NEG_INFINITY];
        original.layers[1].params = vec![-0.0];
        let back = ModelUpdate::decode(&original.encode()).expect("decode");
        assert_eq!(back.sender, original.sender);
        assert_eq!(back.round, original.round);
        assert_eq!(back.model_id, original.model_id);
        assert_eq!(back.layers.len(), original.layers.len());
        for (a, b) in back.layers.iter().zip(original.layers.iter()) {
            assert_eq!(a.index, b.index);
            let bits_a: Vec<u64> = a.params.iter().map(|p| p.to_bits()).collect();
            let bits_b: Vec<u64> = b.params.iter().map(|p| p.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "params must survive bit-exactly");
        }
    }

    #[test]
    fn decode_rejects_unknown_versions_with_typed_error() {
        for future in [0u16, CODEC_VERSION_MAX + 1, 99] {
            let mut bytes = update(&[4]).encode();
            bytes[..2].copy_from_slice(&future.to_le_bytes());
            assert_eq!(
                ModelUpdate::decode(&bytes),
                Err(CodecError::UnsupportedVersion {
                    found: future,
                    supported: CODEC_VERSION_MAX,
                })
            );
        }
    }

    #[test]
    fn decode_rejects_truncation_everywhere_without_panicking() {
        let bytes = update(&[5, 2]).encode();
        for cut in 0..bytes.len() {
            let err = ModelUpdate::decode(&bytes[..cut]).expect_err("truncated must fail");
            assert!(
                matches!(err, CodecError::Truncated { .. } | CodecError::Malformed(_)),
                "cut at {cut} gave {err:?}"
            );
        }
        // Trailing garbage is rejected too.
        let mut padded = bytes;
        padded.push(0);
        assert_eq!(
            ModelUpdate::decode(&padded),
            Err(CodecError::Malformed("trailing bytes"))
        );
    }

    #[test]
    fn corrupted_layer_length_is_an_error_not_an_allocation() {
        let mut bytes = update(&[4]).encode();
        // The layer length field sits after version + 3 u64 + u32 + index.
        let len_off = 2 + 8 + 8 + 8 + 4 + 8;
        bytes[len_off..len_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            ModelUpdate::decode(&bytes),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn byte_size_stays_consistent_with_header_constants() {
        // The wire-size accounting that Figures 13-14 rest on: any drift
        // between byte_size() and the header constants silently skews
        // the communication-cost comparison, so pin the relationship.
        for sizes in [&[][..], &[1][..], &[10, 5][..], &[64, 64, 32][..]] {
            let u = update(sizes);
            let expected =
                HEADER_BYTES + sizes.len() * LAYER_HEADER_BYTES + 8 * sizes.iter().sum::<usize>();
            assert_eq!(u.byte_size(), expected, "layer sizes {sizes:?}");
        }
        // Header must cover sender + round + model_id + a length field,
        // and each layer header its index + a length field.
        const { assert!(HEADER_BYTES >= 8 + 8 + 8 + 8) }
        const { assert!(LAYER_HEADER_BYTES >= 8 + 8) }
    }

    fn valued_update(layers: &[Vec<f64>]) -> ModelUpdate {
        ModelUpdate {
            sender: 3,
            round: 11,
            model_id: 1,
            layers: layers
                .iter()
                .enumerate()
                .map(|(i, params)| LayerUpdate {
                    index: i,
                    params: params.clone(),
                })
                .collect(),
        }
    }

    fn bits(u: &ModelUpdate) -> Vec<Vec<u64>> {
        u.layers
            .iter()
            .map(|l| l.params.iter().map(|p| p.to_bits()).collect())
            .collect()
    }

    #[test]
    fn payload_codec_defaults_to_raw_and_labels_are_stable() {
        assert!(PayloadCodec::default().is_raw());
        assert_eq!(PayloadCodec::Raw.label(), "raw");
        assert_eq!(
            PayloadCodec::QuantizedI8 {
                per_layer_scale: true
            }
            .label(),
            "q8"
        );
    }

    #[test]
    fn raw_wire_size_is_byte_size_and_compressed_sizes_hit_the_target_ratio() {
        // A small federated MLP, [12, 24, 24, 3]: layers of 312, 600
        // and 75 parameters. The acceptance bar is >= 6x smaller
        // federation payloads under QuantizedI8 at this exact shape.
        let u = update(&[312, 600, 75]);
        let raw = PayloadCodec::Raw.wire_update_bytes(&u);
        assert_eq!(raw, u.byte_size());
        let q8 = PayloadCodec::QuantizedI8 {
            per_layer_scale: true,
        }
        .wire_update_bytes(&u);
        assert!(
            raw as f64 / q8 as f64 >= 6.0,
            "q8 ratio {raw}/{q8} below 6x"
        );
        // payload_layer_bytes stays exactly 8*len under Raw, so every
        // pre-compression pinned byte counter is untouched.
        assert_eq!(PayloadCodec::Raw.payload_layer_bytes(600), 4800);
    }

    #[test]
    fn encoded_length_matches_wire_accounting_in_every_mode() {
        let u = valued_update(&[vec![1.5, -2.0, 1e-3, 0.0, 9.25], vec![-4.0], vec![]]);
        for codec in [
            PayloadCodec::Raw,
            PayloadCodec::QuantizedI8 {
                per_layer_scale: true,
            },
            PayloadCodec::QuantizedI8 {
                per_layer_scale: false,
            },
        ] {
            let encoded = u.encode_with(codec);
            // Accounting charges HEADER_BYTES = 32 where the physical
            // header is 30 (u16 version), same convention as encode().
            assert_eq!(
                encoded.len(),
                codec.wire_update_bytes(&u) - 2,
                "{}",
                codec.label()
            );
        }
        assert_eq!(u.encode_with(PayloadCodec::Raw), u.encode());
    }

    #[test]
    fn decode_of_encode_with_reproduces_transform_bitwise() {
        let u = valued_update(&[
            vec![1.5, -2.0, 1e-300, 0.0, 9.25, -0.0, 3.0],
            vec![-4.0, 4.0, 0.125],
        ]);
        for codec in [
            PayloadCodec::Raw,
            PayloadCodec::QuantizedI8 {
                per_layer_scale: true,
            },
            PayloadCodec::QuantizedI8 {
                per_layer_scale: false,
            },
        ] {
            let decoded = ModelUpdate::decode(&u.encode_with(codec)).expect("decode");
            let mut transformed = u.clone();
            codec.transform(&mut transformed);
            assert_eq!(decoded.sender, u.sender);
            assert_eq!(decoded.round, u.round);
            assert_eq!(
                bits(&decoded),
                bits(&transformed),
                "{} decode must equal in-place transform",
                codec.label()
            );
        }
    }

    #[test]
    fn q8_error_is_bounded_by_half_scale_and_nonfinite_goes_to_zero() {
        let mut u = valued_update(&[vec![12.7, -6.35, 0.04, f64::NAN, f64::INFINITY]]);
        let codec = PayloadCodec::QuantizedI8 {
            per_layer_scale: true,
        };
        let original = u.clone();
        codec.transform(&mut u);
        let scale = 12.7 / 127.0;
        for (orig, quant) in original.layers[0].params.iter().zip(&u.layers[0].params) {
            if orig.is_finite() {
                assert!(
                    (orig - quant).abs() <= scale / 2.0 + 1e-12,
                    "{orig} -> {quant} breaks the scale/2 bound"
                );
            } else {
                assert_eq!(*quant, 0.0, "non-finite must quantize to 0");
            }
            assert!(quant.is_finite());
        }
    }

    #[test]
    fn q8_stays_finite_at_the_f64_extremes() {
        // `f64::MAX / 127` rounds up: without the scale cap, `127 × scale`
        // dequantizes the extremes to ±inf.
        for per_layer_scale in [true, false] {
            let codec = PayloadCodec::QuantizedI8 { per_layer_scale };
            let mut u = valued_update(&[vec![f64::MAX, 1.0, -f64::MAX]]);
            let decoded = ModelUpdate::decode(&u.encode_with(codec)).expect("decode");
            codec.transform(&mut u);
            assert_eq!(bits(&decoded), bits(&u), "{codec:?}");
            assert!(
                u.layers[0].params.iter().all(|p| p.is_finite()),
                "{codec:?} gave {:?}",
                u.layers[0].params
            );
        }
    }

    #[test]
    fn q8_decode_rejects_a_scale_above_the_cap() {
        // A hand-built v2 layer with quants [-128, 127].
        let layer = |scale: f64| {
            let mut bytes = CODEC_VERSION_Q8.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0; 24]); // sender, round, model id
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.extend_from_slice(&0u64.to_le_bytes());
            bytes.extend_from_slice(&2u64.to_le_bytes());
            bytes.extend_from_slice(&scale.to_le_bytes());
            bytes.extend_from_slice(&[0x80, 0x7f]);
            ModelUpdate::decode(&bytes)
        };
        assert_eq!(
            layer(1e307),
            Err(CodecError::Malformed("quantization scale"))
        );
        // At the cap, even -128 decodes to a finite value.
        let at_cap = layer(f64::MAX / 128.0).expect("the cap itself decodes");
        assert_eq!(
            at_cap.layers[0].params,
            vec![-f64::MAX, 127.0 * (f64::MAX / 128.0)]
        );
    }

    #[test]
    fn retired_sparse_v3_payloads_are_an_unsupported_version() {
        // v3 was the top-k layout: `index | len | fill | k | indices | values`.
        let mut bytes = 3u16.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 24]);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&0.5f64.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&9.0f64.to_le_bytes());
        assert_eq!(
            ModelUpdate::decode(&bytes),
            Err(CodecError::UnsupportedVersion {
                found: 3,
                supported: 2
            })
        );
    }

    #[test]
    fn hostile_compressed_bytes_decode_to_typed_errors() {
        let u = valued_update(&[vec![1.0, -2.0, 3.0, -4.0]]);

        // v2 with a NaN scale.
        let mut q8 = u.encode_with(PayloadCodec::QuantizedI8 {
            per_layer_scale: true,
        });
        let scale_off = 30 + 16;
        q8[scale_off..scale_off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(
            ModelUpdate::decode(&q8),
            Err(CodecError::Malformed("quantization scale"))
        );
    }

    #[test]
    fn compressed_truncation_is_rejected_everywhere_without_panicking() {
        let u = valued_update(&[vec![1.0, -2.0, 3.0, -4.0, 5.5], vec![0.25, -0.25]]);
        for codec in [
            PayloadCodec::QuantizedI8 {
                per_layer_scale: true,
            },
            PayloadCodec::QuantizedI8 {
                per_layer_scale: false,
            },
        ] {
            let bytes = u.encode_with(codec);
            for cut in 0..bytes.len() {
                let err = ModelUpdate::decode(&bytes[..cut]).expect_err("truncated must fail");
                assert!(
                    matches!(err, CodecError::Truncated { .. } | CodecError::Malformed(_)),
                    "{} cut at {cut} gave {err:?}",
                    codec.label()
                );
            }
            let mut padded = bytes;
            padded.push(0);
            assert_eq!(
                ModelUpdate::decode(&padded),
                Err(CodecError::Malformed("trailing bytes"))
            );
        }
    }
}
