//! The PFDRL layer split (§3.3.2, Eqs. 7–8): the first α layers of the
//! DRL network are *base* layers, broadcast and federated; the remaining
//! layers are *personalization* layers that never leave the residence.

use crate::aggregate::{fill_update, merge_base_layers, MergeReport};
use crate::codec::ModelUpdate;
use pfdrl_nn::Layered;
use std::borrow::Borrow;

/// A base/personalization split over a layered model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerSplit {
    /// Number of base (shared) layers, counted from the input side.
    pub alpha: usize,
    /// Total layers in the model.
    pub total: usize,
}

impl LayerSplit {
    /// # Panics
    /// Panics unless `1 <= alpha <= total`.
    pub fn new(alpha: usize, total: usize) -> Self {
        assert!(alpha >= 1, "alpha must be at least 1");
        assert!(alpha <= total, "alpha {alpha} exceeds total layers {total}");
        LayerSplit { alpha, total }
    }

    /// Split matching a concrete model.
    pub fn for_model(alpha: usize, model: &impl Layered) -> Self {
        Self::new(alpha, model.layer_count())
    }

    /// Indices of base layers (broadcast).
    pub fn base_layers(&self) -> std::ops::Range<usize> {
        0..self.alpha
    }

    /// Indices of personalization layers (kept local).
    pub fn personal_layers(&self) -> std::ops::Range<usize> {
        self.alpha..self.total
    }

    /// Builds the α-layer broadcast message for a model (the reduced
    /// payload that makes PFDRL's communication cheaper than FRL's).
    pub fn base_update<M: Layered + ?Sized>(
        &self,
        model: &M,
        sender: usize,
        round: u64,
        model_id: u64,
    ) -> ModelUpdate {
        let mut out = ModelUpdate {
            sender,
            round,
            model_id,
            layers: Vec::new(),
        };
        self.base_update_into(model, &mut out);
        out
    }

    /// [`base_update`](Self::base_update) into a pooled buffer: reuses
    /// the layer and parameter allocations already in `out` (sender,
    /// round and model id are left as the caller set them).
    pub fn base_update_into<M: Layered + ?Sized>(&self, model: &M, out: &mut ModelUpdate) {
        assert_eq!(
            model.layer_count(),
            self.total,
            "split does not match model"
        );
        fill_update(model, self.base_layers(), out);
    }

    /// Eq. (7) + Eq. (8): averages the base layers with the received base
    /// layers (federated step) and leaves the personalization layers
    /// exactly as they were (local step).
    ///
    /// Validated, never panics on bad peer input: an update carrying a
    /// personalization layer (index >= alpha) is rejected wholesale as a
    /// [`PersonalizationLeak`](crate::AggregateError::PersonalizationLeak);
    /// mis-sized or non-finite layers are rejected individually. The
    /// returned [`MergeReport`] lists every rejection.
    pub fn merge_base<M: Layered + ?Sized, U: Borrow<ModelUpdate>>(
        &self,
        model: &mut M,
        updates: &[U],
    ) -> MergeReport {
        assert_eq!(
            model.layer_count(),
            self.total,
            "split does not match model"
        );
        merge_base_layers(model, updates, self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateError;
    use crate::codec::LayerUpdate;
    use pfdrl_nn::{Activation, Mlp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(seed: u64) -> Mlp {
        Mlp::new(
            &[4, 8, 8, 8, 3],
            Activation::Relu,
            Activation::Identity,
            &mut StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn split_ranges_partition_layers() {
        let s = LayerSplit::new(3, 5);
        assert_eq!(s.base_layers(), 0..3);
        assert_eq!(s.personal_layers(), 3..5);
        let all: Vec<usize> = s.base_layers().chain(s.personal_layers()).collect();
        assert_eq!(all, (0..5).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "alpha must be at least 1")]
    fn zero_alpha_rejected() {
        let _ = LayerSplit::new(0, 8);
    }

    #[test]
    #[should_panic(expected = "exceeds total")]
    fn oversized_alpha_rejected() {
        let _ = LayerSplit::new(9, 8);
    }

    #[test]
    fn base_update_carries_exactly_alpha_layers() {
        let net = mlp(1);
        let split = LayerSplit::for_model(2, &net);
        let u = split.base_update(&net, 0, 0, 0);
        assert_eq!(u.layers.len(), 2);
        assert_eq!(u.layers[0].index, 0);
        assert_eq!(u.layers[1].index, 1);
        // Fewer bytes than a full snapshot.
        let full = crate::aggregate::snapshot_update(&net, 0, 0, 0);
        assert!(u.byte_size() < full.byte_size());
    }

    #[test]
    fn merge_base_federates_base_and_preserves_personal() {
        let mut local = mlp(2);
        let remote = mlp(3);
        let split = LayerSplit::for_model(2, &local);
        let personal_before: Vec<Vec<f64>> = split
            .personal_layers()
            .map(|i| local.export_layer(i))
            .collect();
        let base_before = local.export_layer(0);

        let u = split.base_update(&remote, 1, 0, 0);
        let report = split.merge_base(&mut local, &[&u]);
        assert!(report.is_clean());
        assert_eq!(report.accepted_updates, 1);
        assert_eq!(report.merged_layers, 2);

        // Base layer 0 is now the average of local and remote.
        let expected: Vec<f64> = base_before
            .iter()
            .zip(remote.export_layer(0).iter())
            .map(|(a, b)| (a + b) / 2.0)
            .collect();
        let got = local.export_layer(0);
        for (e, g) in expected.iter().zip(got.iter()) {
            assert!((e - g).abs() < 1e-12);
        }
        // Personalization layers untouched (Eq. 8 keeps W(DRL_P) as-is).
        for (i, before) in split.personal_layers().zip(personal_before.iter()) {
            assert_eq!(&local.export_layer(i), before);
        }
    }

    #[test]
    fn merge_rejects_leaked_personal_layers_without_panic() {
        let mut local = mlp(4);
        let split = LayerSplit::for_model(2, &local);
        let before: Vec<Vec<f64>> = (0..local.layer_count())
            .map(|i| local.export_layer(i))
            .collect();
        let mut u = split.base_update(&local, 1, 0, 0);
        u.layers.push(LayerUpdate {
            index: 3,
            params: local.export_layer(3),
        });
        // A well-behaved peer never sends layer >= alpha; the whole
        // update is rejected and the local model left untouched.
        let report = split.merge_base(&mut local, &[&u]);
        assert_eq!(report.accepted_updates, 0);
        assert_eq!(report.merged_layers, 0);
        assert_eq!(
            report.rejections,
            vec![AggregateError::PersonalizationLeak {
                sender: 1,
                layer: 3,
                alpha: 2
            }]
        );
        for (i, b) in before.iter().enumerate() {
            assert_eq!(&local.export_layer(i), b, "layer {i} must not move");
        }
    }

    #[test]
    fn merge_base_skips_damaged_updates_but_merges_good_ones() {
        let mut local = mlp(7);
        let good_peer = mlp(8);
        let split = LayerSplit::for_model(2, &local);
        let good = split.base_update(&good_peer, 1, 0, 0);
        let mut bad = split.base_update(&good_peer, 2, 0, 0);
        bad.layers[0].params[0] = f64::NAN;
        bad.layers[1].params.truncate(2);
        let report = split.merge_base(&mut local, &[&good, &bad]);
        assert_eq!(report.accepted_updates, 1);
        assert_eq!(report.merged_layers, 2);
        assert_eq!(report.rejections.len(), 2);
    }

    #[test]
    fn alpha_equal_total_degenerates_to_full_federation() {
        let mut a = mlp(5);
        let b = mlp(6);
        let split = LayerSplit::for_model(a.layer_count(), &a);
        let originals: Vec<Vec<f64>> = (0..a.layer_count()).map(|i| a.export_layer(i)).collect();
        let u = split.base_update(&b, 1, 0, 0);
        split.merge_base(&mut a, &[&u]);
        // Every layer is now the average of the two originals.
        for (i, original) in originals.iter().enumerate() {
            let got = a.export_layer(i);
            for ((o, r), g) in original.iter().zip(b.export_layer(i)).zip(got.iter()) {
                assert!(((o + r) / 2.0 - g).abs() < 1e-12);
            }
        }
    }
}
