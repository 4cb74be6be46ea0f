//! Deterministic chaos injection for the federation substrate.
//!
//! Residential federations are not datacenters: homes power off
//! overnight, WiFi drops broadcasts, cheap hubs straggle, and flash
//! corruption mangles payloads. This module models those faults as a
//! *pure function of a seed* so chaos runs are exactly reproducible:
//! every decision (is home 3 offline in round 7? does the message from
//! 2 to 5 get lost?) is a hash of `(seed, sender, receiver, round,
//! model_id)` and never depends on thread timing or call order.
//!
//! Fault classes, mirroring the knobs in [`FaultConfig`]:
//!
//! * **churn** — a residence goes offline for whole windows of
//!   `OFFLINE_ROUNDS` (2) federation rounds (neither sends nor receives);
//! * **loss** — an individual point-to-point delivery vanishes;
//! * **stragglers** — a delivery arrives one drain cycle late and pays
//!   `STRAGGLER_DELAY` (4) times the nominal latency on top (fed into the
//!   [`LatencyModel`] accounting);
//! * **corruption** — a delivered payload is damaged: NaN-injected
//!   parameters or a truncated layer.
//!
//! [`LatencyModel`]: crate::bus::LatencyModel

use crate::codec::ModelUpdate;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Length of one churn window, in federation rounds: a residence drawn
/// offline sits out this many consecutive rounds.
pub(crate) const OFFLINE_ROUNDS: u64 = 2;

/// Latency multiplier a straggling delivery pays on top of the nominal
/// per-message cost.
pub(crate) const STRAGGLER_DELAY: f64 = 4.0;

/// User-facing fault knobs. All rates are probabilities in `[0, 1]`;
/// the default is fault-free (every rate zero), so wiring a
/// `FaultConfig` through a pipeline changes nothing until a rate is
/// raised.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed for all fault decisions (independent of the simulation
    /// seed so the same scenario can replay under different faults).
    #[serde(default)]
    pub seed: u64,
    /// Probability that a residence is offline for a given window of
    /// `OFFLINE_ROUNDS` (2) rounds (churn).
    #[serde(default)]
    pub dropout_rate: f64,
    /// Per-delivery probability that a message is lost.
    #[serde(default)]
    pub loss_rate: f64,
    /// Per-delivery probability that a message straggles (arrives one
    /// drain cycle late, paying `STRAGGLER_DELAY` (4) times the nominal
    /// latency on top).
    #[serde(default)]
    pub straggler_rate: f64,
    /// Per-delivery probability that the payload is corrupted.
    #[serde(default)]
    pub corrupt_rate: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0xFA01,
            dropout_rate: 0.0,
            loss_rate: 0.0,
            straggler_rate: 0.0,
            corrupt_rate: 0.0,
        }
    }
}

impl FaultConfig {
    /// A chaos preset: `rate` drives churn and loss together, with a
    /// sprinkle of stragglers and corruption at a quarter of `rate`.
    pub fn chaos(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            dropout_rate: rate,
            loss_rate: rate,
            straggler_rate: rate / 4.0,
            corrupt_rate: rate / 4.0,
        }
    }

    /// True when any fault class can fire.
    pub fn is_active(&self) -> bool {
        self.dropout_rate > 0.0
            || self.loss_rate > 0.0
            || self.straggler_rate > 0.0
            || self.corrupt_rate > 0.0
    }

    /// Validates the knobs.
    ///
    /// # Panics
    /// Panics with a descriptive message on an invalid configuration.
    pub fn validate(&self) {
        for (name, rate) in [
            ("dropout_rate", self.dropout_rate),
            ("loss_rate", self.loss_rate),
            ("straggler_rate", self.straggler_rate),
            ("corrupt_rate", self.corrupt_rate),
        ] {
            assert!(
                (0.0..=1.0).contains(&rate),
                "fault {name} {rate} must be a probability in [0, 1]"
            );
        }
    }

    /// Freezes the config into a decision plan.
    pub fn plan(&self) -> FaultPlan {
        self.validate();
        FaultPlan { cfg: *self }
    }
}

/// Why a delivery was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    SenderOffline,
    ReceiverOffline,
    Loss,
}

/// How a delivered payload was damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// A parameter of one layer is replaced with NaN.
    NanInject,
    /// One layer's parameter vector is cut in half (size mismatch
    /// downstream).
    Truncate,
}

/// The fate of one point-to-point delivery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delivery {
    Deliver,
    Drop(DropReason),
    /// Deliver one drain cycle late, paying `extra_latency_mult` times
    /// the nominal per-delivery latency on top.
    Delay {
        extra_latency_mult: f64,
    },
    Corrupt(CorruptKind),
}

// Domain-separation salts so the loss/straggler/corruption decisions for
// the same delivery are independent draws.
const SALT_OFFLINE: u64 = 0x4F46_464C;
const SALT_LOSS: u64 = 0x4C4F_5353;
const SALT_STRAGGLE: u64 = 0x5354_5247;
const SALT_CORRUPT: u64 = 0x434F_5252;
/// Sentinel "receiver" for uploads to the cloud server.
pub const CLOUD_PEER: u64 = u64::MAX;

/// SplitMix64 finalizer: every fault decision is a chain of these.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn mix(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A frozen, seed-deterministic fault schedule. Cheap to copy; every
/// query is a pure hash, so concurrent callers always agree.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    #[inline]
    fn delivery_hash(
        &self,
        salt: u64,
        sender: u64,
        receiver: u64,
        round: u64,
        model_id: u64,
    ) -> u64 {
        let mut h = mix(self.cfg.seed, salt);
        h = mix(h, sender);
        h = mix(h, receiver);
        h = mix(h, round);
        mix(h, model_id)
    }

    /// Is `node` offline (churned out) during `round`? Offline spans
    /// are whole windows of `OFFLINE_ROUNDS` (2) rounds.
    pub fn is_offline(&self, node: usize, round: u64) -> bool {
        if self.cfg.dropout_rate <= 0.0 {
            return false;
        }
        let window = round / OFFLINE_ROUNDS;
        let h = self.delivery_hash(SALT_OFFLINE, node as u64, 0, window, 0);
        unit(h) < self.cfg.dropout_rate
    }

    /// Fate of the delivery `sender -> receiver` in `round` for
    /// `model_id`. Pure: same arguments, same answer, in any order and
    /// from any thread.
    pub fn delivery(&self, sender: usize, receiver: usize, round: u64, model_id: u64) -> Delivery {
        if self.is_offline(sender, round) {
            return Delivery::Drop(DropReason::SenderOffline);
        }
        if self.is_offline(receiver, round) {
            return Delivery::Drop(DropReason::ReceiverOffline);
        }
        self.transit_fate(sender as u64, receiver as u64, round, model_id)
    }

    /// Fate of a client upload to the cloud server (the cloud itself
    /// never churns; only the sending residence can be offline).
    pub fn upload(&self, sender: usize, round: u64, model_id: u64) -> Delivery {
        if self.is_offline(sender, round) {
            return Delivery::Drop(DropReason::SenderOffline);
        }
        self.transit_fate(sender as u64, CLOUD_PEER, round, model_id)
    }

    /// Can `receiver` download the round's mean in `round`? Offline
    /// residences keep their local model for the round.
    pub fn can_download(&self, receiver: usize, round: u64) -> bool {
        !self.is_offline(receiver, round)
    }

    fn transit_fate(&self, sender: u64, receiver: u64, round: u64, model_id: u64) -> Delivery {
        let loss = self.delivery_hash(SALT_LOSS, sender, receiver, round, model_id);
        if unit(loss) < self.cfg.loss_rate {
            return Delivery::Drop(DropReason::Loss);
        }
        let corrupt = self.delivery_hash(SALT_CORRUPT, sender, receiver, round, model_id);
        if unit(corrupt) < self.cfg.corrupt_rate {
            return Delivery::Corrupt(if corrupt & 1 == 0 {
                CorruptKind::NanInject
            } else {
                CorruptKind::Truncate
            });
        }
        let straggle = self.delivery_hash(SALT_STRAGGLE, sender, receiver, round, model_id);
        if unit(straggle) < self.cfg.straggler_rate {
            return Delivery::Delay {
                extra_latency_mult: STRAGGLER_DELAY,
            };
        }
        Delivery::Deliver
    }

    /// Applies `kind` to a copy of `update`. Which layer/parameter is
    /// damaged is itself a deterministic hash of the update identity.
    pub fn corrupt(&self, update: &ModelUpdate, receiver: u64, kind: CorruptKind) -> ModelUpdate {
        let mut damaged = update.clone();
        if damaged.layers.is_empty() {
            return damaged;
        }
        let h = self.delivery_hash(
            SALT_CORRUPT ^ 0xDEAD,
            update.sender as u64,
            receiver,
            update.round,
            update.model_id,
        );
        let layer = (h % damaged.layers.len() as u64) as usize;
        let params = &mut damaged.layers[layer].params;
        match kind {
            CorruptKind::NanInject => {
                if !params.is_empty() {
                    let idx = (h >> 8) as usize % params.len();
                    params[idx] = f64::NAN;
                }
            }
            CorruptKind::Truncate => {
                let keep = params.len() / 2;
                params.truncate(keep);
            }
        }
        damaged
    }
}

/// Per-receiver mailbox for straggling deliveries: a message parked in
/// `staged` becomes visible only after the *next* drain, which is what
/// makes stragglers one full cycle stale by the time they merge.
#[derive(Default)]
struct Parked {
    ready: Vec<Arc<ModelUpdate>>,
    staged: Vec<Arc<ModelUpdate>>,
}

/// Stateful companion of [`FaultPlan`] used by the bus: holds the plan
/// plus the parked straggler queues.
pub struct FaultInjector {
    plan: FaultPlan,
    parked: Vec<Parked>,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan, n_receivers: usize) -> Self {
        FaultInjector {
            plan,
            parked: (0..n_receivers).map(|_| Parked::default()).collect(),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Parks a straggling delivery for `receiver`; it will surface on
    /// the drain after next.
    pub fn park(&mut self, receiver: usize, update: Arc<ModelUpdate>) {
        self.parked[receiver].staged.push(update);
    }

    /// Appends the deliveries parked for `receiver` whose delay has
    /// elapsed to `out` and advances the queue one cycle (staged ->
    /// ready).
    pub fn take_ready(&mut self, receiver: usize, out: &mut Vec<Arc<ModelUpdate>>) {
        let slot = &mut self.parked[receiver];
        out.append(&mut slot.ready);
        std::mem::swap(&mut slot.ready, &mut slot.staged);
    }

    /// Captures the parked straggler queues — the fault plan's replay
    /// cursor — as `(ready, staged)` per receiver, in delivery order.
    pub fn export_parked(&self) -> (Vec<Vec<ModelUpdate>>, Vec<Vec<ModelUpdate>>) {
        let copy = |q: &[Arc<ModelUpdate>]| q.iter().map(|u| (**u).clone()).collect();
        self.parked
            .iter()
            .map(|slot| (copy(&slot.ready), copy(&slot.staged)))
            .unzip()
    }

    /// Restores queues captured with [`FaultInjector::export_parked`],
    /// placing each message back in its exact queue position (a message
    /// restored into `ready` surfaces on the next drain; one in
    /// `staged` a drain later — unlike [`FaultInjector::park`], which
    /// always stages).
    ///
    /// # Errors
    /// Rejects captures taken from an injector with a different number
    /// of receivers.
    pub fn restore_parked(
        &mut self,
        ready: Vec<Vec<ModelUpdate>>,
        staged: Vec<Vec<ModelUpdate>>,
    ) -> Result<(), String> {
        if ready.len() != self.parked.len() || staged.len() != self.parked.len() {
            return Err(format!(
                "parked queues for {}/{} receivers, injector has {}",
                ready.len(),
                staged.len(),
                self.parked.len()
            ));
        }
        for (slot, (r, s)) in self.parked.iter_mut().zip(ready.into_iter().zip(staged)) {
            slot.ready = r.into_iter().map(Arc::new).collect();
            slot.staged = s.into_iter().map(Arc::new).collect();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::LayerUpdate;

    fn update(sender: usize, round: u64) -> ModelUpdate {
        ModelUpdate {
            sender,
            round,
            model_id: 0,
            layers: vec![LayerUpdate {
                index: 0,
                params: vec![1.0; 8],
            }],
        }
    }

    #[test]
    fn default_config_is_inert() {
        let cfg = FaultConfig::default();
        assert!(!cfg.is_active());
        let plan = cfg.plan();
        for round in 0..50 {
            for s in 0..4 {
                assert!(!plan.is_offline(s, round));
                for r in 0..4 {
                    if s != r {
                        assert_eq!(plan.delivery(s, r, round, 0), Delivery::Deliver);
                    }
                }
            }
        }
    }

    #[test]
    fn decisions_are_deterministic_and_order_free() {
        let plan = FaultConfig::chaos(42, 0.4).plan();
        // Query forwards then backwards: identical answers.
        let forward: Vec<Delivery> = (0..200u64)
            .map(|i| plan.delivery((i % 5) as usize, ((i + 1) % 5) as usize, i, i % 3))
            .collect();
        let backward: Vec<Delivery> = (0..200u64)
            .rev()
            .map(|i| plan.delivery((i % 5) as usize, ((i + 1) % 5) as usize, i, i % 3))
            .collect();
        let mut backward = backward;
        backward.reverse();
        assert_eq!(forward, backward);
        // And a second plan from the same config agrees exactly.
        let plan2 = FaultConfig::chaos(42, 0.4).plan();
        let again: Vec<Delivery> = (0..200u64)
            .map(|i| plan2.delivery((i % 5) as usize, ((i + 1) % 5) as usize, i, i % 3))
            .collect();
        assert_eq!(forward, again);
    }

    #[test]
    fn different_seeds_disagree() {
        let a = FaultConfig::chaos(1, 0.5).plan();
        let b = FaultConfig::chaos(2, 0.5).plan();
        let fates_a: Vec<Delivery> = (0..100).map(|r| a.delivery(0, 1, r, 0)).collect();
        let fates_b: Vec<Delivery> = (0..100).map(|r| b.delivery(0, 1, r, 0)).collect();
        assert_ne!(fates_a, fates_b);
    }

    #[test]
    fn loss_rate_is_roughly_respected() {
        let plan = FaultConfig {
            loss_rate: 0.3,
            ..FaultConfig::default()
        }
        .plan();
        let lost = (0..10_000u64)
            .filter(|&r| plan.delivery(0, 1, r, 0) == Delivery::Drop(DropReason::Loss))
            .count();
        assert!(
            (2_400..3_600).contains(&lost),
            "lost {lost} of 10000 at rate 0.3"
        );
    }

    #[test]
    fn offline_windows_span_whole_rounds() {
        let plan = FaultConfig {
            dropout_rate: 0.5,
            ..FaultConfig::default()
        }
        .plan();
        for node in 0..8 {
            for window in 0..20u64 {
                let states: Vec<bool> = (window * OFFLINE_ROUNDS..(window + 1) * OFFLINE_ROUNDS)
                    .map(|r| plan.is_offline(node, r))
                    .collect();
                assert!(
                    states.iter().all(|&s| s == states[0]),
                    "offline state must be constant within a window"
                );
            }
        }
    }

    #[test]
    fn offline_sender_drops_every_delivery() {
        let plan = FaultConfig {
            dropout_rate: 0.5,
            ..FaultConfig::default()
        }
        .plan();
        // Find an offline (node, round) pair; rate 0.5 makes one certain.
        let (node, round) = (0..8usize)
            .flat_map(|n| (0..8u64).map(move |r| (n, r)))
            .find(|&(n, r)| plan.is_offline(n, r))
            .expect("no offline node found at 50% dropout");
        for peer in 0..8 {
            if peer != node {
                assert_eq!(
                    plan.delivery(node, peer, round, 0),
                    Delivery::Drop(DropReason::SenderOffline)
                );
                assert_eq!(
                    plan.upload(node, round, 0),
                    Delivery::Drop(DropReason::SenderOffline)
                );
                assert!(!plan.can_download(node, round));
            }
        }
    }

    #[test]
    fn nan_injection_damages_exactly_one_param() {
        let plan = FaultConfig::chaos(7, 0.5).plan();
        let u = update(0, 3);
        let damaged = plan.corrupt(&u, 1, CorruptKind::NanInject);
        let nans = damaged.layers[0]
            .params
            .iter()
            .filter(|p| p.is_nan())
            .count();
        assert_eq!(nans, 1);
        assert_eq!(damaged.layers[0].params.len(), u.layers[0].params.len());
    }

    #[test]
    fn truncation_halves_a_layer() {
        let plan = FaultConfig::chaos(7, 0.5).plan();
        let u = update(0, 3);
        let damaged = plan.corrupt(&u, 1, CorruptKind::Truncate);
        assert_eq!(damaged.layers[0].params.len(), 4);
        assert!(damaged.byte_size() < u.byte_size());
    }

    #[test]
    fn corruption_is_deterministic() {
        let plan = FaultConfig::chaos(9, 0.5).plan();
        let u = update(2, 11);
        let a = plan.corrupt(&u, 4, CorruptKind::Truncate);
        let b = plan.corrupt(&u, 4, CorruptKind::Truncate);
        assert_eq!(a, b);
    }

    #[test]
    fn parked_messages_surface_one_cycle_late() {
        let mut injector = FaultInjector::new(FaultConfig::default().plan(), 2);
        injector.park(1, Arc::new(update(0, 0)));
        let mut out = Vec::new();
        // Cycle 1: the staged message is not yet visible.
        injector.take_ready(1, &mut out);
        assert!(out.is_empty());
        // Cycle 2: now it surfaces.
        injector.take_ready(1, &mut out);
        assert_eq!(out.len(), 1);
        // Cycle 3: gone.
        out.clear();
        injector.take_ready(1, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_rate_rejected() {
        let _ = FaultConfig {
            loss_rate: 1.5,
            ..FaultConfig::default()
        }
        .plan();
    }

    #[test]
    fn chaos_preset_is_valid_and_active() {
        for rate in [0.0, 0.1, 0.5, 1.0] {
            let cfg = FaultConfig::chaos(3, rate);
            cfg.validate();
            assert_eq!(cfg.is_active(), rate > 0.0);
        }
    }
}
