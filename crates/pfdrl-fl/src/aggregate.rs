//! Parameter aggregation — Algorithm 1's `W ← Σ W_n / N` and helpers for
//! applying it to any [`Layered`] model — hardened against the faults of
//! [`crate::fault`]: mis-sized, truncated or non-finite layers are
//! rejected with typed [`AggregateError`]s and counted, never panicked
//! on, and each layer averages the local model with every valid layer
//! that arrived.

use crate::codec::{LayerUpdate, ModelUpdate};
use crate::shard::ShardAssignment;
use pfdrl_nn::Layered;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;

/// How a decentralized FedAvg round turns received updates into merged
/// models.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregationMode {
    /// Every home independently averages its local model with each of
    /// the N−1 updates it received — O(N²·params) per round. This is
    /// the seed behavior, bit-for-bit.
    #[default]
    PerHome,
    /// Two-level federation: homes are partitioned into `shards`
    /// neighborhood shards (see [`ShardAssignment`]), each exchanging
    /// over its own broadcast bus, and a fixed-shape top-level tree
    /// combines the per-shard partial sums into the fleet-global update
    /// sum S (sum-of-sums, so shards are weighted by population by
    /// construction). Each home then merges `(local_i + S − update_i) /
    /// N` — O(N·params) per round — and message complexity drops from
    /// O(N²) deliveries per round to O(Σ nₖ²). A home whose shard round
    /// was disturbed (churn, loss, stragglers or corruption) falls back
    /// to the per-home merge of what its neighborhood delivered.
    /// `shards: 1` is the flat O(N) fast path: numerically equivalent
    /// to `PerHome` but not bit-identical (the sum is re-associated), so
    /// it carries its own canary.
    Hierarchical {
        /// Number of neighborhood shards (clamped to the fleet size;
        /// must be ≥ 1).
        shards: usize,
        /// How homes are assigned to shards.
        assignment: ShardAssignment,
    },
}

/// Builds a full-model update from a [`Layered`] model.
pub fn snapshot_update<M: Layered + ?Sized>(
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
    fill_update(model, 0..model.layer_count(), &mut out);
    out
}

/// Fills `out` with layers `range` exported from `model`, reusing the
/// layer and parameter buffers already allocated in `out`. The
/// buffer-reusing equivalent of [`snapshot_update`] /
/// [`crate::LayerSplit::base_update`]:
/// on the federation hot path it performs zero heap allocations once the
/// buffers have warmed up.
pub(crate) fn fill_update<M: Layered + ?Sized>(
    model: &M,
    range: std::ops::Range<usize>,
    out: &mut ModelUpdate,
) {
    let wanted = range.len();
    out.layers.truncate(wanted);
    while out.layers.len() < wanted {
        out.layers.push(LayerUpdate {
            index: 0,
            params: Vec::new(),
        });
    }
    for (slot, i) in out.layers.iter_mut().zip(range) {
        slot.index = i;
        model.export_layer_into(i, &mut slot.params);
    }
}

/// Why a received layer (or whole update) was rejected during a merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateError {
    /// A layer's parameter vector does not match the local model
    /// (covers truncation corruption and mis-configured federations).
    SizeMismatch {
        sender: usize,
        layer: usize,
        expected: usize,
        got: usize,
    },
    /// A layer carries NaN or infinite parameters.
    NonFinite { sender: usize, layer: usize },
    /// A layer index beyond the local model's layer count.
    LayerOutOfRange {
        sender: usize,
        layer: usize,
        layer_count: usize,
    },
    /// A peer transmitted a personalization layer (index >= alpha) —
    /// privacy leak or mis-configured split; the whole update is
    /// rejected.
    PersonalizationLeak {
        sender: usize,
        layer: usize,
        alpha: usize,
    },
}

impl fmt::Display for AggregateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AggregateError::SizeMismatch {
                sender,
                layer,
                expected,
                got,
            } => write!(
                f,
                "update from {sender}: layer {layer} has {got} params, expected {expected}"
            ),
            AggregateError::NonFinite { sender, layer } => {
                write!(
                    f,
                    "update from {sender}: layer {layer} carries non-finite params"
                )
            }
            AggregateError::LayerOutOfRange {
                sender,
                layer,
                layer_count,
            } => write!(
                f,
                "update from {sender}: layer index {layer} out of range for {layer_count} layers"
            ),
            AggregateError::PersonalizationLeak {
                sender,
                layer,
                alpha,
            } => write!(
                f,
                "update from {sender}: personalization layer {layer} leaked (alpha = {alpha})"
            ),
        }
    }
}

impl std::error::Error for AggregateError {}

/// Outcome of a validated merge: what was applied, what was rejected.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergeReport {
    /// Updates that contributed at least one accepted layer.
    pub accepted_updates: usize,
    /// Layers whose parameters were re-averaged.
    pub merged_layers: usize,
    /// Every rejection, in deterministic (update, layer) order.
    pub rejections: Vec<AggregateError>,
}

impl MergeReport {
    /// True when nothing was rejected.
    pub fn is_clean(&self) -> bool {
        self.rejections.is_empty()
    }
}

/// Validates `update` against `model` and pushes each accepted layer's
/// parameters onto `per_layer[layer index]`, in the update's layer
/// order; returns whether any layer was accepted. `alpha` bounds the
/// permitted layer indices (personalization guard); `None` permits all
/// layers.
fn validate_update<'a, M: Layered + ?Sized>(
    model: &M,
    update: &'a ModelUpdate,
    alpha: Option<usize>,
    per_layer: &mut [Vec<&'a [f64]>],
    rejections: &mut Vec<AggregateError>,
) -> bool {
    // Privacy guard first: a leaked personalization layer poisons the
    // whole update (the peer is misbehaving or mis-configured).
    if let Some(alpha) = alpha {
        if let Some(lu) = update.layers.iter().find(|lu| lu.index >= alpha) {
            rejections.push(AggregateError::PersonalizationLeak {
                sender: update.sender,
                layer: lu.index,
                alpha,
            });
            return false;
        }
    }
    let mut accepted = false;
    for lu in &update.layers {
        if lu.index >= model.layer_count() {
            rejections.push(AggregateError::LayerOutOfRange {
                sender: update.sender,
                layer: lu.index,
                layer_count: model.layer_count(),
            });
            continue;
        }
        let expected = model.layer_param_count(lu.index);
        if lu.params.len() != expected {
            rejections.push(AggregateError::SizeMismatch {
                sender: update.sender,
                layer: lu.index,
                expected,
                got: lu.params.len(),
            });
            continue;
        }
        if lu.params.iter().any(|p| !p.is_finite()) {
            rejections.push(AggregateError::NonFinite {
                sender: update.sender,
                layer: lu.index,
            });
            continue;
        }
        per_layer[lu.index].push(&lu.params);
        accepted = true;
    }
    accepted
}

/// Core validated merge over an explicit layer range: each layer that
/// received at least one valid contribution becomes the mean of the
/// local parameters and those contributions (Algorithm 1's
/// `W ← Σ W_n / N` over what arrived), summed in `updates` order.
pub(crate) fn merge_layers<'a, M: Layered + ?Sized>(
    model: &mut M,
    updates: impl IntoIterator<Item = &'a ModelUpdate>,
    layer_range: std::ops::Range<usize>,
    alpha: Option<usize>,
) -> MergeReport {
    let mut report = MergeReport::default();
    let mut per_layer: Vec<Vec<&[f64]>> = (0..model.layer_count()).map(|_| Vec::new()).collect();
    for update in updates {
        if validate_update(model, update, alpha, &mut per_layer, &mut report.rejections) {
            report.accepted_updates += 1;
        }
    }
    // One accumulator buffer reused across every merged layer; each pass
    // starts from the freshly exported local parameters.
    let mut acc: Vec<f64> = Vec::new();
    for layer_idx in layer_range {
        let contributions = &per_layer[layer_idx];
        if contributions.is_empty() {
            continue; // nothing received for this layer: normal for partial updates
        }
        model.export_layer_into(layer_idx, &mut acc);
        for params in contributions {
            for (a, p) in acc.iter_mut().zip(params.iter()) {
                *a += p;
            }
        }
        let count = (contributions.len() + 1) as f64;
        for a in acc.iter_mut() {
            *a /= count;
        }
        model.import_layer(layer_idx, &acc);
        report.merged_layers += 1;
    }
    report
}

/// Averages the local model with the matching layers of every received
/// update, layer by layer: a plain average of local + received. Invalid
/// layers (wrong size, non-finite, out of range) are rejected with typed
/// errors in the returned [`MergeReport`] instead of panicking.
pub fn merge_updates<M: Layered + ?Sized, U: Borrow<ModelUpdate>>(
    model: &mut M,
    updates: &[U],
) -> MergeReport {
    let layer_count = model.layer_count();
    merge_layers(
        model,
        updates.iter().map(Borrow::borrow),
        0..layer_count,
        None,
    )
}

/// Validated merge over only the base layers `0..alpha`, rejecting any
/// update that leaks a personalization layer. Used by
/// [`crate::LayerSplit::merge_base`].
pub(crate) fn merge_base_layers<M: Layered + ?Sized, U: Borrow<ModelUpdate>>(
    model: &mut M,
    updates: &[U],
    alpha: usize,
) -> MergeReport {
    merge_layers(
        model,
        updates.iter().map(Borrow::borrow),
        0..alpha,
        Some(alpha),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfdrl_nn::average_params;

    /// Minimal Layered stand-in: two layers of sizes 2 and 3.
    #[derive(Debug, Clone, PartialEq)]
    struct Toy {
        l0: Vec<f64>,
        l1: Vec<f64>,
    }

    impl Toy {
        fn new(a: f64) -> Self {
            Toy {
                l0: vec![a; 2],
                l1: vec![a * 10.0; 3],
            }
        }
    }

    impl Layered for Toy {
        fn layer_count(&self) -> usize {
            2
        }
        fn layer_param_count(&self, i: usize) -> usize {
            if i == 0 {
                2
            } else {
                3
            }
        }
        fn export_layer(&self, i: usize) -> Vec<f64> {
            if i == 0 {
                self.l0.clone()
            } else {
                self.l1.clone()
            }
        }
        fn import_layer(&mut self, i: usize, data: &[f64]) {
            if i == 0 {
                self.l0 = data.to_vec();
            } else {
                self.l1 = data.to_vec();
            }
        }
    }

    #[test]
    fn snapshot_contains_all_layers() {
        let t = Toy::new(1.0);
        let u = snapshot_update(&t, 3, 7, 9);
        assert_eq!(u.sender, 3);
        assert_eq!(u.round, 7);
        assert_eq!(u.model_id, 9);
        assert_eq!(u.layers.len(), 2);
        assert_eq!(u.layers[1].params, vec![10.0; 3]);
    }

    #[test]
    fn merge_averages_with_local() {
        let mut local = Toy::new(0.0);
        let remote = snapshot_update(&Toy::new(3.0), 1, 0, 0);
        let report = merge_updates(&mut local, &[&remote]);
        assert!(report.is_clean());
        assert_eq!(report.accepted_updates, 1);
        assert_eq!(report.merged_layers, 2);
        // Average of 0 and 3.
        assert_eq!(local.l0, vec![1.5; 2]);
        assert_eq!(local.l1, vec![15.0; 3]);
    }

    #[test]
    fn merge_partial_update_leaves_other_layers() {
        let mut local = Toy::new(0.0);
        let mut remote = snapshot_update(&Toy::new(4.0), 1, 0, 0);
        remote.layers.truncate(1); // only layer 0 transmitted
        let report = merge_updates(&mut local, &[&remote]);
        assert!(report.is_clean());
        assert_eq!(report.merged_layers, 1);
        assert_eq!(local.l0, vec![2.0; 2]);
        assert_eq!(local.l1, vec![0.0; 3], "untransmitted layer must not move");
    }

    #[test]
    fn merge_with_no_updates_is_identity() {
        let mut local = Toy::new(5.0);
        let before = local.clone();
        let report = merge_updates::<_, &ModelUpdate>(&mut local, &[]);
        assert!(report.is_clean());
        assert_eq!(report.merged_layers, 0);
        assert_eq!(local, before);
    }

    #[test]
    fn merge_rejects_mis_sized_layers_without_panic() {
        let mut local = Toy::new(0.0);
        let before = local.clone();
        let remote = ModelUpdate {
            sender: 1,
            round: 0,
            model_id: 0,
            layers: vec![LayerUpdate {
                index: 0,
                params: vec![1.0; 99],
            }],
        };
        let report = merge_updates(&mut local, &[&remote]);
        assert_eq!(local, before, "mis-sized layer must not be applied");
        assert_eq!(report.accepted_updates, 0);
        assert_eq!(
            report.rejections,
            vec![AggregateError::SizeMismatch {
                sender: 1,
                layer: 0,
                expected: 2,
                got: 99
            }]
        );
    }

    #[test]
    fn merge_rejects_non_finite_layers() {
        let mut local = Toy::new(1.0);
        let before = local.clone();
        let mut remote = snapshot_update(&Toy::new(3.0), 2, 0, 0);
        remote.layers[0].params[1] = f64::NAN;
        let report = merge_updates(&mut local, &[&remote]);
        // Layer 0 rejected, layer 1 still merged.
        assert_eq!(local.l0, before.l0);
        assert_eq!(local.l1, vec![20.0; 3]);
        assert_eq!(
            report.rejections,
            vec![AggregateError::NonFinite {
                sender: 2,
                layer: 0
            }]
        );
        assert_eq!(report.accepted_updates, 1);
    }

    #[test]
    fn merge_rejects_out_of_range_layers() {
        let mut local = Toy::new(0.0);
        let remote = ModelUpdate {
            sender: 4,
            round: 0,
            model_id: 0,
            layers: vec![LayerUpdate {
                index: 17,
                params: vec![1.0; 2],
            }],
        };
        let report = merge_updates(&mut local, &[&remote]);
        assert_eq!(
            report.rejections,
            vec![AggregateError::LayerOutOfRange {
                sender: 4,
                layer: 17,
                layer_count: 2
            }]
        );
    }

    #[test]
    fn merge_matches_plain_average() {
        // The validated path must agree exactly with the naive mean of
        // local + all updates.
        let mut a = Toy::new(1.0);
        let mut b = Toy::new(1.0);
        let u1 = snapshot_update(&Toy::new(2.0), 1, 0, 0);
        let u2 = snapshot_update(&Toy::new(6.0), 2, 0, 0);
        let _ = merge_updates(&mut a, &[&u1, &u2]);
        // Naive mean for b.
        let snaps = vec![
            u1.layers[0].params.clone(),
            u2.layers[0].params.clone(),
            b.export_layer(0),
        ];
        b.import_layer(0, &average_params(&snaps));
        for (x, y) in a.l0.iter().zip(b.l0.iter()) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn errors_render_human_readable() {
        let e = AggregateError::SizeMismatch {
            sender: 3,
            layer: 1,
            expected: 8,
            got: 4,
        };
        let s = e.to_string();
        assert!(s.contains("3") && s.contains("layer 1") && s.contains("8") && s.contains("4"));
    }
}
