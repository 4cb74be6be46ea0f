//! Content-addressed tensor pool.
//!
//! A snapshot of an N-residence federation stores the same base-layer
//! parameters up to N times (every residence holds the broadcast base
//! after a γ merge), and each DQN stores its target network as a near-
//! or exact copy of its Q-network. Interning every network, optimizer,
//! forecaster and in-flight update tensor in one pool and referencing
//! it by index collapses those copies: identical tensors (bit-for-bit,
//! so `-0.0` ≠ `0.0` and NaN payloads are distinguished) are stored
//! once. Replay rings are not pooled: each is one block of distinct
//! rows, written inline in the `AGENTS` section.
//!
//! Dedup keys are FNV-1a hashes over the raw bit patterns; collisions
//! are resolved by exact bit comparison, so two distinct tensors never
//! alias. Only encoding interns, so a decoded pool builds its index on
//! its first [`TensorPool::intern`], not while loading.

use std::collections::HashMap;

use crate::error::StoreError;
use crate::wire::{Reader, Writer};

/// Identifier of an interned tensor inside one snapshot's pool.
pub type TensorId = u32;

/// Deduplicating pool of f64 vectors.
#[derive(Debug, Default)]
pub struct TensorPool {
    tensors: Vec<Vec<f64>>,
    index: HashMap<u64, Vec<TensorId>>,
}

/// FNV-1a 64 over the raw bit patterns of a tensor.
fn hash_bits(vs: &[f64]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &v in vs {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Bit-exact equality (distinguishes `-0.0` from `0.0`, preserves NaN
/// payload identity) — the only equality under which interning is
/// lossless.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl TensorPool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `vs`, returning the id of the stored copy. Bit-identical
    /// tensors get the same id; anything else gets a fresh slot.
    pub fn intern(&mut self, vs: &[f64]) -> TensorId {
        // Every intern indexes its tensor, so an empty index over a
        // non-empty pool means the pool was decoded.
        if self.index.is_empty() {
            for (id, t) in self.tensors.iter().enumerate() {
                self.index
                    .entry(hash_bits(t))
                    .or_default()
                    .push(id as TensorId);
            }
        }
        let h = hash_bits(vs);
        if let Some(ids) = self.index.get(&h) {
            for &id in ids {
                if same_bits(&self.tensors[id as usize], vs) {
                    return id;
                }
            }
        }
        let id = self.tensors.len() as TensorId;
        self.tensors.push(vs.to_vec());
        self.index.entry(h).or_default().push(id);
        id
    }

    /// Fetch a tensor by id; a dangling id is a typed error, not a panic.
    pub fn get(&self, id: u64) -> Result<&Vec<f64>, StoreError> {
        usize::try_from(id)
            .ok()
            .and_then(|i| self.tensors.get(i))
            .ok_or(StoreError::BadTensorRef { id })
    }

    /// Number of distinct tensors stored.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total f64 elements across all stored tensors (dedup-effectiveness
    /// metric: compare against the sum over all intern calls).
    pub fn total_params(&self) -> usize {
        self.tensors.iter().map(Vec::len).sum()
    }

    /// Serialize the pool into `w`.
    pub fn encode(&self, w: &mut Writer) {
        w.put_usize(self.tensors.len());
        for t in &self.tensors {
            w.put_f64s(t);
        }
    }

    /// Deserialize a pool. The dedup index is left empty until the
    /// first [`TensorPool::intern`].
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let n = r.count(8)?; // each tensor costs at least its length prefix
        let mut tensors = Vec::with_capacity(n);
        for _ in 0..n {
            tensors.push(r.f64s()?);
        }
        Ok(TensorPool {
            tensors,
            index: HashMap::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_tensors_share_one_slot() {
        let mut pool = TensorPool::new();
        let a = pool.intern(&[1.0, 2.0, 3.0]);
        let b = pool.intern(&[1.0, 2.0, 3.0]);
        let c = pool.intern(&[1.0, 2.0, 3.5]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn negative_zero_and_nan_payloads_are_distinct() {
        let mut pool = TensorPool::new();
        let pz = pool.intern(&[0.0]);
        let nz = pool.intern(&[-0.0]);
        assert_ne!(pz, nz);

        let nan_a = f64::from_bits(0x7FF8_0000_0000_0001);
        let nan_b = f64::from_bits(0x7FF8_0000_0000_0002);
        let ia = pool.intern(&[nan_a]);
        let ib = pool.intern(&[nan_b]);
        let ia2 = pool.intern(&[nan_a]);
        assert_ne!(ia, ib);
        assert_eq!(ia, ia2);
    }

    #[test]
    fn round_trip_preserves_ids_and_bits() {
        let mut pool = TensorPool::new();
        let nan = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
        let ids = [
            pool.intern(&[1.0, -0.0, nan]),
            pool.intern(&[]),
            pool.intern(&[f64::MAX; 17]),
            pool.intern(&[1.0, -0.0, nan]), // dup of first
        ];
        assert_eq!(ids[0], ids[3]);

        let mut w = Writer::new();
        pool.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "pool");
        let back = TensorPool::decode(&mut r).unwrap();
        r.expect_end().unwrap();

        assert_eq!(back.len(), pool.len());
        for id in 0..pool.len() as u64 {
            let orig = pool.get(id).unwrap();
            let rt = back.get(id).unwrap();
            assert!(same_bits(orig, rt));
        }
        // The index built on the first intern still deduplicates,
        // whichever stored tensor comes first.
        let mut back = back;
        assert_eq!(back.intern(&[f64::MAX; 17]), ids[2]);
        assert_eq!(back.intern(&[1.0, -0.0, nan]), ids[0]);
        assert_eq!(back.len(), pool.len());
    }

    #[test]
    fn dangling_ids_are_typed_errors() {
        let pool = TensorPool::new();
        assert_eq!(pool.get(0), Err(StoreError::BadTensorRef { id: 0 }));
        assert_eq!(
            pool.get(u64::MAX),
            Err(StoreError::BadTensorRef { id: u64::MAX })
        );
    }
}
