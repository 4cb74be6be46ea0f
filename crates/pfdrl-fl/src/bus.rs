//! In-process broadcast bus between residences.
//!
//! Replaces the paper's LAN broadcast between smart-home hubs: each
//! residence gets a mailbox, and every broadcast is delivered to all
//! other residences. The bus keeps byte/message statistics and converts
//! them into simulated communication time via a [`LatencyModel`], which
//! is how the time-overhead comparison of Figure 14 is reproduced
//! without real network hardware.
//!
//! The bus is plain owned state: every method that delivers, drains or
//! restores takes `&mut self`, and nothing is shared across threads
//! (each hierarchical shard owns its own bus). Updates travel as
//! `Arc<ModelUpdate>`: a broadcast to N−1 peers shares one payload
//! instead of cloning it, and a clean delivery is pointer-identical to
//! the payload the caller passed to [`BroadcastBus::broadcast_all`]
//! (in a per-pair round, the hierarchical shared-sum fast path uses
//! that identity to prove a mailbox saw the full round).
//!
//! A bus with no fault plan and nothing queued can only deliver
//! everything, so the round engine skips the mailboxes there: the bus
//! accounts the complete round's counters, one delta per sender, and
//! each home reads its deliveries in place from the round's payloads,
//! in sender order. The N(N−1) handles that `broadcast_all` would
//! queue are never built.
//!
//! A bus built with [`BroadcastBus::with_faults`] routes every delivery
//! through a [`FaultInjector`]: churned-out or lossy deliveries are
//! dropped (and counted per reason), straggling ones are parked until
//! the next drain and pay a latency penalty, and corrupted ones arrive
//! damaged for the aggregation layer to reject.

use crate::codec::{ModelUpdate, PayloadCodec};
use crate::fault::{Delivery, DropReason, FaultConfig, FaultInjector};
use std::sync::Arc;

/// Simple linear latency model: `per_message + bytes * per_byte`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed cost per delivered message, seconds.
    pub per_message_s: f64,
    /// Cost per transmitted byte, seconds (1/bandwidth).
    pub per_byte_s: f64,
}

impl LatencyModel {
    /// Residential LAN: ~1 ms per message, ~100 MiB/s effective.
    pub fn lan() -> Self {
        LatencyModel {
            per_message_s: 1e-3,
            per_byte_s: 1.0 / (100.0 * 1024.0 * 1024.0),
        }
    }

    /// Cloud uplink: ~40 ms RTT per message, ~10 MiB/s effective.
    pub fn cloud() -> Self {
        LatencyModel {
            per_message_s: 40e-3,
            per_byte_s: 1.0 / (10.0 * 1024.0 * 1024.0),
        }
    }

    /// Simulated seconds to deliver `bytes` in `messages`.
    pub fn seconds(&self, messages: u64, bytes: u64) -> f64 {
        messages as f64 * self.per_message_s + bytes as f64 * self.per_byte_s
    }
}

/// Aggregate traffic statistics, including per-reason fault counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BusStats {
    /// Point-to-point deliveries (one broadcast to N-1 peers counts N-1).
    pub messages: u64,
    /// Wire bytes across all deliveries — what actually travels after
    /// the bus's [`PayloadCodec`] shrinks each payload. Identical to
    /// `logical_bytes` under `PayloadCodec::Raw`.
    pub bytes: u64,
    /// Logical (pre-compression, raw-f64) bytes of the same
    /// deliveries. The Figures 13–14 comparison reports both so
    /// compressed and uncompressed runs stay apples-to-apples.
    pub logical_bytes: u64,
    /// Deliveries dropped because the sender was churned offline.
    pub dropped_offline: u64,
    /// Deliveries dropped by simulated message loss.
    pub dropped_loss: u64,
    /// Deliveries that arrived with a corrupted payload.
    pub corrupted: u64,
    /// Deliveries parked by straggler delay (arrive a drain cycle late).
    pub delayed: u64,
    /// Extra simulated seconds paid by straggling deliveries.
    pub delay_seconds: f64,
}

impl BusStats {
    /// Total deliveries that never reached a mailbox, for any reason.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_offline + self.dropped_loss
    }

    /// Adds every counter of `d` into `self` (the float sum in the
    /// caller's order, which fixes its rounding).
    pub(crate) fn add(&mut self, d: &BusStats) {
        self.messages += d.messages;
        self.bytes += d.bytes;
        self.logical_bytes += d.logical_bytes;
        self.dropped_offline += d.dropped_offline;
        self.dropped_loss += d.dropped_loss;
        self.corrupted += d.corrupted;
        self.delayed += d.delayed;
        self.delay_seconds += d.delay_seconds;
    }
}

/// A broadcast bus connecting `n` residences.
pub struct BroadcastBus {
    /// One inbox per residence, in delivery order.
    mailboxes: Vec<Vec<Arc<ModelUpdate>>>,
    stats: BusStats,
    latency: LatencyModel,
    faults: Option<FaultInjector>,
    codec: PayloadCodec,
}

impl BroadcastBus {
    /// Creates a fault-free bus for `n` residences.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, latency: LatencyModel) -> Self {
        Self::with_faults(n, latency, &FaultConfig::default())
    }

    /// Creates a bus whose deliveries are subject to `faults`. A
    /// fault-free config ([`FaultConfig::is_active`] == false) behaves
    /// exactly like [`BroadcastBus::new`].
    ///
    /// # Panics
    /// Panics if `n == 0` or the fault config is invalid.
    pub fn with_faults(n: usize, latency: LatencyModel, faults: &FaultConfig) -> Self {
        Self::with_codec(n, latency, faults, PayloadCodec::Raw)
    }

    /// [`with_faults`](Self::with_faults) plus an uplink
    /// [`PayloadCodec`]: broadcast payloads are accounted (and, at the
    /// round-engine layer, transformed) under `codec`. `Raw` keeps
    /// every byte counter bit-identical to [`BroadcastBus::new`].
    ///
    /// # Panics
    /// Panics if `n == 0` or the fault config is invalid.
    pub fn with_codec(
        n: usize,
        latency: LatencyModel,
        faults: &FaultConfig,
        codec: PayloadCodec,
    ) -> Self {
        assert!(n > 0, "bus needs at least one participant");
        BroadcastBus {
            mailboxes: vec![Vec::new(); n],
            stats: BusStats::default(),
            latency,
            faults: faults
                .is_active()
                .then(|| FaultInjector::new(faults.plan(), n)),
            codec,
        }
    }

    /// The uplink payload codec this bus accounts under.
    pub fn codec(&self) -> PayloadCodec {
        self.codec
    }

    /// Number of participants.
    pub fn len(&self) -> usize {
        self.mailboxes.len()
    }

    pub fn is_empty(&self) -> bool {
        false // a bus always has >= 1 participant (checked at creation)
    }

    /// Broadcasts `update` from its sender to every *other* residence:
    /// [`broadcast_all`](Self::broadcast_all) of one update.
    ///
    /// # Panics
    /// Panics if `update.sender` is out of range.
    pub fn broadcast(&mut self, update: ModelUpdate) {
        self.broadcast_all(&[Arc::new(update)]);
    }

    /// Broadcasts one update per sender, each to every residence but
    /// its sender. Under an active fault plan each point-to-point
    /// delivery is independently dropped, delayed, corrupted, or
    /// delivered; the outcome for each `(sender, receiver, round,
    /// model_id)` tuple is a pure hash of the fault seed. Clean
    /// deliveries alias the caller's `Arc` — no payload clone per
    /// receiver.
    ///
    /// Each receiver's deliveries arrive in slice order, and each
    /// sender's counter delta — `delay_seconds` included — is folded
    /// into the totals in slice order, so the result is bit-identical
    /// to broadcasting the updates one at a time.
    ///
    /// # Panics
    /// Panics if any `update.sender` is out of range.
    pub fn broadcast_all(&mut self, updates: &[Arc<ModelUpdate>]) {
        let n = self.len();
        let codec = self.codec;
        let sizes: Vec<(u64, u64)> = updates
            .iter()
            .map(|arc| {
                assert!(arc.sender < n, "sender {} out of range", arc.sender);
                (codec.wire_update_bytes(arc) as u64, arc.byte_size() as u64)
            })
            .collect();
        let mut deltas = vec![BusStats::default(); updates.len()];
        let Self {
            mailboxes,
            faults,
            latency,
            ..
        } = self;
        for (receiver, mailbox) in mailboxes.iter_mut().enumerate() {
            for ((arc, &(wire, logical)), delta) in
                updates.iter().zip(&sizes).zip(deltas.iter_mut())
            {
                if arc.sender == receiver {
                    continue;
                }
                let fate = match faults {
                    Some(inj) => inj
                        .plan()
                        .delivery(arc.sender, receiver, arc.round, arc.model_id),
                    None => Delivery::Deliver,
                };
                match fate {
                    Delivery::Drop(DropReason::SenderOffline | DropReason::ReceiverOffline) => {
                        delta.dropped_offline += 1
                    }
                    Delivery::Drop(DropReason::Loss) => delta.dropped_loss += 1,
                    Delivery::Corrupt(kind) => {
                        let plan = faults.as_ref().expect("corrupt without injector").plan();
                        let damaged = plan.corrupt(arc, receiver as u64, kind);
                        delta.corrupted += 1;
                        delta.messages += 1;
                        delta.bytes += codec.wire_update_bytes(&damaged) as u64;
                        delta.logical_bytes += damaged.byte_size() as u64;
                        mailbox.push(Arc::new(damaged));
                    }
                    Delivery::Delay { extra_latency_mult } => {
                        let injector = faults.as_mut().expect("delay without injector");
                        injector.park(receiver, Arc::clone(arc));
                        delta.delayed += 1;
                        delta.messages += 1;
                        delta.bytes += wire;
                        delta.logical_bytes += logical;
                        delta.delay_seconds += extra_latency_mult * latency.seconds(1, wire);
                    }
                    Delivery::Deliver => {
                        mailbox.push(Arc::clone(arc));
                        delta.messages += 1;
                        delta.bytes += wire;
                        delta.logical_bytes += logical;
                    }
                }
            }
        }
        for delta in &deltas {
            self.stats.add(delta);
        }
    }

    /// A bus is clean when it has no fault plan and nothing queued: a
    /// broadcast can then only deliver every payload to every other
    /// residence.
    pub(crate) fn is_clean(&self) -> bool {
        self.faults.is_none() && self.mailboxes.iter().all(Vec::is_empty)
    }

    /// The complete round of a clean bus: when [`Self::is_clean`],
    /// accounts `updates` exactly as [`broadcast_all`](Self::broadcast_all)
    /// plus the drains would (one delta per sender, folded in slice
    /// order) and returns true without queueing a handle. The caller
    /// then reads each residence's deliveries from `updates` itself:
    /// every update but its own, in slice order. Any other bus is left
    /// untouched and returns false.
    ///
    /// # Panics
    /// Panics if the bus is clean and any `update.sender` is out of
    /// range.
    pub(crate) fn account_complete(&mut self, updates: &[Arc<ModelUpdate>]) -> bool {
        if !self.is_clean() {
            return false;
        }
        let n = self.len();
        let peers = n as u64 - 1;
        for u in updates {
            assert!(u.sender < n, "sender {} out of range", u.sender);
            self.stats.add(&BusStats {
                messages: peers,
                bytes: peers * self.codec.wire_update_bytes(u) as u64,
                logical_bytes: peers * u.byte_size() as u64,
                ..BusStats::default()
            });
        }
        true
    }

    /// Drains all pending updates addressed to residence `id`,
    /// including any straggling deliveries whose delay has elapsed.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn drain(&mut self, id: usize) -> Vec<Arc<ModelUpdate>> {
        let mut out = Vec::new();
        self.drain_into(id, &mut out);
        out
    }

    /// [`drain`](Self::drain) into a reusable buffer (cleared first):
    /// the mailbox in arrival order, then the stragglers that surface
    /// this cycle. One drain advances the straggler clock one cycle.
    pub fn drain_into(&mut self, id: usize, out: &mut Vec<Arc<ModelUpdate>>) {
        out.clear();
        out.append(&mut self.mailboxes[id]);
        if let Some(inj) = &mut self.faults {
            inj.take_ready(id, out);
        }
    }

    /// [`drain_into`](Self::drain_into) keeping only updates whose
    /// `model_id` matches; the rest are *discarded*, not left queued.
    pub fn drain_model_into(&mut self, id: usize, model_id: u64, out: &mut Vec<Arc<ModelUpdate>>) {
        self.drain_into(id, out);
        out.retain(|u| u.model_id == model_id);
    }

    /// Traffic so far.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// Simulated communication time spent so far, seconds, including
    /// straggler delay penalties.
    pub fn simulated_seconds(&self) -> f64 {
        self.latency.seconds(self.stats.messages, self.stats.bytes) + self.stats.delay_seconds
    }

    /// Captures the complete bus state — statistics, undrained mailbox
    /// contents, and any parked straggler queues — without disturbing
    /// it.
    pub fn export_state(&self) -> BusState {
        let mailboxes = self
            .mailboxes
            .iter()
            .map(|m| m.iter().map(|u| (**u).clone()).collect())
            .collect();
        let (parked_ready, parked_staged) = match &self.faults {
            Some(inj) => inj.export_parked(),
            None => (vec![Vec::new(); self.len()], vec![Vec::new(); self.len()]),
        };
        BusState {
            stats: self.stats,
            mailboxes,
            parked_ready,
            parked_staged,
        }
    }

    /// Restores state captured with [`BroadcastBus::export_state`] into
    /// a freshly built bus of the same shape.
    ///
    /// # Errors
    /// Rejects states whose participant count does not match or that
    /// carry parked stragglers when this bus has no fault injector.
    pub fn restore_state(&mut self, state: &BusState) -> Result<(), String> {
        let n = self.len();
        if state.mailboxes.len() != n {
            return Err(format!(
                "bus state has {} mailboxes, bus has {n}",
                state.mailboxes.len()
            ));
        }
        for (mailbox, contents) in self.mailboxes.iter_mut().zip(&state.mailboxes) {
            mailbox.extend(contents.iter().map(|u| Arc::new(u.clone())));
        }
        match &mut self.faults {
            Some(inj) => {
                inj.restore_parked(state.parked_ready.clone(), state.parked_staged.clone())?
            }
            None => {
                let parked = state.parked_ready.iter().chain(&state.parked_staged);
                if parked.flatten().next().is_some() {
                    return Err(
                        "bus state carries parked stragglers but this bus has no fault injector"
                            .into(),
                    );
                }
            }
        }
        self.stats = state.stats;
        Ok(())
    }
}

/// Serializable snapshot of a [`BroadcastBus`], for checkpointing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BusState {
    /// Traffic counters (the latency model is linear in these, so
    /// restoring them reproduces final simulated-seconds exactly).
    pub stats: BusStats,
    /// Undrained mailbox contents per receiver, in delivery order.
    pub mailboxes: Vec<Vec<ModelUpdate>>,
    /// Parked stragglers surfacing on the next drain, per receiver.
    pub parked_ready: Vec<Vec<ModelUpdate>>,
    /// Parked stragglers surfacing one drain later, per receiver.
    pub parked_staged: Vec<Vec<ModelUpdate>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::LayerUpdate;
    use crate::fault::STRAGGLER_DELAY;

    fn update(sender: usize, n_params: usize) -> ModelUpdate {
        update_round(sender, n_params, 0)
    }

    fn update_round(sender: usize, n_params: usize, round: u64) -> ModelUpdate {
        ModelUpdate {
            sender,
            round,
            model_id: 0,
            layers: vec![LayerUpdate {
                index: 0,
                params: vec![1.0; n_params],
            }],
        }
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let mut bus = BroadcastBus::new(3, LatencyModel::lan());
        bus.broadcast(update(0, 4));
        assert!(bus.drain(0).is_empty());
        assert_eq!(bus.drain(1).len(), 1);
        assert_eq!(bus.drain(2).len(), 1);
        // Draining again yields nothing.
        assert!(bus.drain(1).is_empty());
    }

    #[test]
    fn stats_count_per_delivery() {
        let mut bus = BroadcastBus::new(4, LatencyModel::lan());
        let u = update(1, 10);
        let size = u.byte_size() as u64;
        bus.broadcast(u);
        let s = bus.stats();
        assert_eq!(s.messages, 3);
        assert_eq!(s.bytes, 3 * size);
    }

    #[test]
    fn single_participant_broadcast_is_free() {
        let mut bus = BroadcastBus::new(1, LatencyModel::lan());
        bus.broadcast(update(0, 10));
        assert_eq!(bus.stats(), BusStats::default());
    }

    #[test]
    fn simulated_seconds_follow_latency_model() {
        let latency = LatencyModel {
            per_message_s: 1.0,
            per_byte_s: 0.0,
        };
        let mut bus = BroadcastBus::new(3, latency);
        bus.broadcast(update(0, 1));
        assert!((bus.simulated_seconds() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cloud_latency_dominates_lan() {
        let msgs = 10;
        let bytes = 1_000_000;
        assert!(
            LatencyModel::cloud().seconds(msgs, bytes) > LatencyModel::lan().seconds(msgs, bytes)
        );
    }

    #[test]
    fn clean_deliveries_alias_the_sent_payload() {
        let mut bus = BroadcastBus::new(3, LatencyModel::lan());
        let sent = Arc::new(update(0, 4));
        bus.broadcast_all(&[Arc::clone(&sent)]);
        for id in 1..3 {
            let got = bus.drain(id);
            assert_eq!(got.len(), 1);
            assert!(
                Arc::ptr_eq(&got[0], &sent),
                "clean delivery must alias the sent payload"
            );
        }
    }

    #[test]
    fn complete_round_accounts_what_per_pair_delivery_counts() {
        let codecs = [
            PayloadCodec::Raw,
            PayloadCodec::QuantizedI8 {
                per_layer_scale: true,
            },
        ];
        for codec in codecs {
            let bus =
                || BroadcastBus::with_codec(4, LatencyModel::lan(), &FaultConfig::default(), codec);
            let arcs: Vec<Arc<ModelUpdate>> = (0..4).map(|s| Arc::new(update(s, 8 + s))).collect();
            let mut pair = bus();
            pair.broadcast_all(&arcs);
            for id in 0..4 {
                pair.drain(id);
            }
            let mut clean = bus();
            assert!(clean.account_complete(&arcs), "{codec:?}");
            assert_eq!(clean.stats(), pair.stats(), "{codec:?}");
            assert_eq!(clean.export_state(), pair.export_state(), "{codec:?}");
            assert_eq!(
                clean.simulated_seconds().to_bits(),
                pair.simulated_seconds().to_bits()
            );
        }
    }

    #[test]
    fn only_a_clean_bus_accounts_a_complete_round() {
        let arcs: Vec<Arc<ModelUpdate>> = (0..3).map(|s| Arc::new(update(s, 4))).collect();
        let lossy = FaultConfig {
            loss_rate: 0.1,
            ..FaultConfig::default()
        };
        let mut faulty = BroadcastBus::with_faults(3, LatencyModel::lan(), &lossy);
        let mut queued = BroadcastBus::new(3, LatencyModel::lan());
        queued.broadcast(update(0, 4));
        let queued_stats = queued.stats();
        for (bus, what) in [(&mut faulty, "fault plan"), (&mut queued, "queued mail")] {
            let before = bus.export_state();
            assert!(!bus.account_complete(&arcs), "{what}");
            assert_eq!(bus.export_state(), before, "{what} must stay untouched");
        }
        // Draining the queue makes the bus clean again.
        queued.drain(1);
        queued.drain(2);
        assert!(queued.account_complete(&arcs));
        assert_eq!(queued.stats().messages, queued_stats.messages + 6);
    }

    #[test]
    fn keyed_drain_keeps_matching_and_discards_the_rest() {
        let mut bus = BroadcastBus::new(2, LatencyModel::lan());
        let mut a = update(0, 4);
        a.model_id = 7;
        let mut b = update(0, 4);
        b.model_id = 3;
        let mut c = update(0, 4);
        c.model_id = 7;
        bus.broadcast(a);
        bus.broadcast(b);
        bus.broadcast(c);
        let mut out = Vec::new();
        bus.drain_model_into(1, 7, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|u| u.model_id == 7));
        // The non-matching update was discarded, not left queued —
        // exactly the historical clone-then-filter semantics.
        assert!(bus.drain(1).is_empty());
    }

    #[test]
    fn inactive_fault_config_changes_nothing() {
        let mut plain = BroadcastBus::new(3, LatencyModel::lan());
        let mut faulty = BroadcastBus::with_faults(3, LatencyModel::lan(), &FaultConfig::default());
        plain.broadcast(update(0, 4));
        faulty.broadcast(update(0, 4));
        assert_eq!(plain.stats(), faulty.stats());
        assert_eq!(faulty.drain(1).len(), 1);
    }

    #[test]
    fn total_loss_drops_everything_with_counters() {
        let cfg = FaultConfig {
            loss_rate: 1.0,
            ..FaultConfig::default()
        };
        let mut bus = BroadcastBus::with_faults(4, LatencyModel::lan(), &cfg);
        bus.broadcast(update(0, 8));
        let s = bus.stats();
        assert_eq!(s.messages, 0);
        assert_eq!(s.bytes, 0);
        assert_eq!(s.dropped_loss, 3);
        for id in 1..4 {
            assert!(bus.drain(id).is_empty());
        }
    }

    #[test]
    fn lossy_bus_is_deterministic_per_seed() {
        let cfg = FaultConfig {
            seed: 77,
            loss_rate: 0.5,
            ..FaultConfig::default()
        };
        let run = || {
            let mut bus = BroadcastBus::with_faults(5, LatencyModel::lan(), &cfg);
            for round in 0..20u64 {
                for sender in 0..5 {
                    bus.broadcast(update_round(sender, 4, round));
                }
            }
            let per_mailbox: Vec<usize> = (0..5).map(|id| bus.drain(id).len()).collect();
            (bus.stats(), per_mailbox)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stragglers_arrive_one_drain_late_and_pay_latency() {
        let cfg = FaultConfig {
            straggler_rate: 1.0,
            ..FaultConfig::default()
        };
        let latency = LatencyModel {
            per_message_s: 1.0,
            per_byte_s: 0.0,
        };
        let mut bus = BroadcastBus::with_faults(2, latency, &cfg);
        bus.broadcast(update(0, 4));
        // First drain: still parked.
        assert!(bus.drain(1).is_empty());
        // Second drain: surfaces.
        assert_eq!(bus.drain(1).len(), 1);
        let s = bus.stats();
        assert_eq!(s.delayed, 1);
        assert_eq!(s.messages, 1);
        // 1 message * 1 s nominal + the straggler penalty on that
        // delivery.
        assert!((bus.simulated_seconds() - (1.0 + STRAGGLER_DELAY)).abs() < 1e-12);
    }

    #[test]
    fn corrupted_deliveries_are_flagged_and_damaged() {
        let cfg = FaultConfig {
            corrupt_rate: 1.0,
            ..FaultConfig::default()
        };
        let mut bus = BroadcastBus::with_faults(2, LatencyModel::lan(), &cfg);
        let clean = update(0, 8);
        bus.broadcast(clean.clone());
        let got = bus.drain(1);
        assert_eq!(got.len(), 1);
        let damaged = &got[0];
        let truncated = damaged.layers[0].params.len() < clean.layers[0].params.len();
        let has_nan = damaged.layers[0].params.iter().any(|p| p.is_nan());
        assert!(truncated || has_nan, "payload must be damaged");
        assert_eq!(bus.stats().corrupted, 1);
    }

    #[test]
    fn full_dropout_silences_the_bus() {
        let cfg = FaultConfig {
            dropout_rate: 1.0,
            ..FaultConfig::default()
        };
        let mut bus = BroadcastBus::with_faults(3, LatencyModel::lan(), &cfg);
        bus.broadcast(update(0, 4));
        let s = bus.stats();
        assert_eq!(s.messages, 0);
        assert_eq!(s.dropped_offline, 2);
    }

    #[test]
    fn raw_codec_reports_equal_wire_and_logical_bytes() {
        let mut bus = BroadcastBus::new(3, LatencyModel::lan());
        assert!(bus.codec().is_raw());
        bus.broadcast(update(0, 10));
        let s = bus.stats();
        assert_eq!(s.bytes, s.logical_bytes);
        assert_ne!(s.bytes, 0);
    }

    #[test]
    fn compressed_codec_shrinks_wire_but_not_logical_bytes() {
        use crate::codec::PayloadCodec;
        let codec = PayloadCodec::QuantizedI8 {
            per_layer_scale: true,
        };
        let mut bus =
            BroadcastBus::with_codec(3, LatencyModel::lan(), &FaultConfig::default(), codec);
        let u = update(0, 100);
        let logical = u.byte_size() as u64;
        let wire = codec.wire_update_bytes(&u) as u64;
        assert!(wire < logical);
        bus.broadcast(u);
        let s = bus.stats();
        assert_eq!(s.bytes, 2 * wire);
        assert_eq!(s.logical_bytes, 2 * logical);
        // Simulated latency is paid on wire bytes.
        let expected = bus.latency.seconds(2, 2 * wire);
        assert!((bus.simulated_seconds() - expected).abs() < 1e-15);
    }

    #[test]
    fn batched_broadcast_is_bitwise_identical_to_sequential() {
        // Same fault plan, same senders: broadcast_all must reproduce
        // one broadcast per sender exactly — mailbox contents, arrival
        // order, every counter, and the delay_seconds float bits.
        let cfg = FaultConfig {
            seed: 1234,
            loss_rate: 0.2,
            corrupt_rate: 0.15,
            straggler_rate: 0.25,
            ..FaultConfig::default()
        };
        let n = 7;
        let run = |batched: bool| {
            let mut bus = BroadcastBus::with_faults(n, LatencyModel::lan(), &cfg);
            for round in 0..6u64 {
                let arcs: Vec<Arc<ModelUpdate>> = (0..n)
                    .map(|s| Arc::new(update_round(s, 16 + s, round)))
                    .collect();
                if batched {
                    bus.broadcast_all(&arcs);
                } else {
                    for arc in arcs {
                        bus.broadcast(Arc::unwrap_or_clone(arc));
                    }
                }
            }
            // Compare parameter *bits*: corrupted payloads carry NaNs,
            // which derived f64 PartialEq would treat as never equal.
            type UpdateBits = (usize, u64, u64, Vec<(usize, Vec<u64>)>);
            let mailboxes: Vec<Vec<UpdateBits>> = (0..n)
                .map(|id| {
                    bus.drain(id)
                        .iter()
                        .map(|u| {
                            (
                                u.sender,
                                u.round,
                                u.model_id,
                                u.layers
                                    .iter()
                                    .map(|l| {
                                        (l.index, l.params.iter().map(|p| p.to_bits()).collect())
                                    })
                                    .collect(),
                            )
                        })
                        .collect()
                })
                .collect();
            (bus.stats(), bus.simulated_seconds().to_bits(), mailboxes)
        };
        assert_eq!(run(false), run(true));
    }
}
