//! In-process broadcast bus between residences.
//!
//! Replaces the paper's LAN broadcast between smart-home hubs: each
//! round, every residence's update is delivered to every other
//! residence. The bus keeps byte/message statistics and converts them
//! into simulated communication time via a [`LatencyModel`], which is
//! how the time-overhead comparison of Figure 14 is reproduced without
//! real network hardware.
//!
//! A round is one call over the caller's own payloads: one update per
//! sender, in sender order. [`BroadcastBus::deliver`] delivers it pair
//! by pair and fills one inbox per residence. An intact delivery is the
//! [`Mail::Sent`] index of its payload in the caller's slice, so no
//! payload is copied per receiver; a corrupted copy or a straggler from
//! an earlier round is an owned [`Mail::Owned`] update. A bus without a
//! fault plan can only deliver everything, so the round engine skips
//! the inboxes there: the bus accounts the complete round's counters,
//! one delta per sender, and each home reads its deliveries in place
//! from the round's payloads, in sender order.
//!
//! A bus built with [`BroadcastBus::with_faults`] routes every delivery
//! through its [`FaultPlan`]: churned-out or lossy deliveries are
//! dropped (and counted per reason), straggling ones are parked as owned
//! copies until the bus's next delivery and pay a latency penalty, and
//! corrupted ones arrive damaged for the aggregation layer to reject.
//! Parked stragglers are the only mail a bus holds between calls.
//!
//! The bus is plain owned state: every method that delivers or restores
//! takes `&mut self`, and nothing is shared across threads (each
//! hierarchical shard owns its own bus).

use crate::codec::{ModelUpdate, PayloadCodec};
use crate::fault::{Delivery, DropReason, FaultConfig, FaultPlan};

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
    /// Deliveries parked by straggler delay (arrive one round late).
    pub delayed: u64,
    /// Extra simulated seconds paid by straggling deliveries.
    pub delay_seconds: f64,
}

impl BusStats {
    /// Total deliveries that never reached an inbox, for any reason.
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

/// One entry of a residence's inbox, filled by
/// [`BroadcastBus::deliver`].
#[derive(Debug, Clone, PartialEq)]
pub enum Mail {
    /// The payload at this index of the delivered slice, intact.
    Sent(usize),
    /// A payload the bus hands over: a corrupted copy of this round's
    /// payload, or a straggler parked at an earlier delivery.
    Owned(ModelUpdate),
}

impl Mail {
    /// The delivered update; `sent` is the slice the round delivered.
    pub fn get<'a>(&'a self, sent: &'a [ModelUpdate]) -> &'a ModelUpdate {
        match self {
            Mail::Sent(slot) => &sent[*slot],
            Mail::Owned(update) => update,
        }
    }
}

/// A broadcast bus connecting `n` residences.
pub struct BroadcastBus {
    /// Counters and parked stragglers: everything that outlives a call.
    state: BusState,
    latency: LatencyModel,
    faults: Option<FaultPlan>,
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
            state: BusState {
                stats: BusStats::default(),
                parked_ready: vec![Vec::new(); n],
                parked_staged: vec![Vec::new(); n],
            },
            latency,
            faults: faults.is_active().then(|| faults.plan()),
            codec,
        }
    }

    /// The uplink payload codec this bus accounts under.
    pub fn codec(&self) -> PayloadCodec {
        self.codec
    }

    /// Number of participants.
    pub fn len(&self) -> usize {
        self.state.parked_ready.len()
    }

    pub fn is_empty(&self) -> bool {
        false // a bus always has >= 1 participant (checked at creation)
    }

    /// Delivers one round pair by pair: each of `updates` (one per
    /// sender, in sender order) to every residence but its sender.
    /// Under a fault plan each delivery is independently dropped,
    /// delayed, corrupted, or delivered; the outcome for each `(sender,
    /// receiver, round, model_id)` tuple is a pure hash of the fault
    /// seed.
    ///
    /// `inboxes` is resized to one per residence and each is refilled
    /// in arrival order: this round's deliveries in slice order, then
    /// the stragglers parked at the bus's previous delivery. Only mail
    /// of `model_id` is kept; a straggler of another model surfaces
    /// here and is discarded, not left queued. Each sender's counter
    /// delta, `delay_seconds` included, is folded into the totals in
    /// slice order.
    ///
    /// # Panics
    /// Panics if any `update.sender` is out of range.
    pub fn deliver(
        &mut self,
        updates: &[ModelUpdate],
        model_id: u64,
        inboxes: &mut Vec<Vec<Mail>>,
    ) {
        let n = self.len();
        let codec = self.codec;
        let sizes: Vec<(u64, u64)> = updates
            .iter()
            .map(|u| {
                assert!(u.sender < n, "sender {} out of range", u.sender);
                (codec.wire_update_bytes(u) as u64, u.byte_size() as u64)
            })
            .collect();
        let mut deltas = vec![BusStats::default(); updates.len()];
        inboxes.resize_with(n, Vec::new);
        let Self {
            state,
            faults,
            latency,
            ..
        } = self;
        for (receiver, inbox) in inboxes.iter_mut().enumerate() {
            inbox.clear();
            for (slot, ((u, &(wire, logical)), delta)) in
                updates.iter().zip(&sizes).zip(&mut deltas).enumerate()
            {
                if u.sender == receiver {
                    continue;
                }
                let fate = match faults {
                    Some(plan) => plan.delivery(u.sender, receiver, u.round, u.model_id),
                    None => Delivery::Deliver,
                };
                let keep = u.model_id == model_id;
                match fate {
                    Delivery::Drop(DropReason::SenderOffline | DropReason::ReceiverOffline) => {
                        delta.dropped_offline += 1
                    }
                    Delivery::Drop(DropReason::Loss) => delta.dropped_loss += 1,
                    Delivery::Corrupt(kind) => {
                        let plan = faults.as_ref().expect("corrupt without a fault plan");
                        let damaged = plan.corrupt(u, receiver as u64, kind);
                        delta.corrupted += 1;
                        delta.messages += 1;
                        delta.bytes += codec.wire_update_bytes(&damaged) as u64;
                        delta.logical_bytes += damaged.byte_size() as u64;
                        if keep {
                            inbox.push(Mail::Owned(damaged));
                        }
                    }
                    Delivery::Delay { extra_latency_mult } => {
                        state.parked_staged[receiver].push(u.clone());
                        delta.delayed += 1;
                        delta.messages += 1;
                        delta.bytes += wire;
                        delta.logical_bytes += logical;
                        delta.delay_seconds += extra_latency_mult * latency.seconds(1, wire);
                    }
                    Delivery::Deliver => {
                        if keep {
                            inbox.push(Mail::Sent(slot));
                        }
                        delta.messages += 1;
                        delta.bytes += wire;
                        delta.logical_bytes += logical;
                    }
                }
            }
            // The stragglers parked at the previous delivery surface;
            // this delivery's move up to surface at the next one.
            let ready = &mut state.parked_ready[receiver];
            inbox.extend(
                ready
                    .drain(..)
                    .filter(|u| u.model_id == model_id)
                    .map(Mail::Owned),
            );
            std::mem::swap(ready, &mut state.parked_staged[receiver]);
        }
        for delta in &deltas {
            state.stats.add(delta);
        }
    }

    /// The complete round of a bus without a fault plan: accounts
    /// `updates` exactly as [`deliver`](Self::deliver) would (one delta
    /// per sender, folded in slice order) and returns true without
    /// filling an inbox. The caller then reads each residence's
    /// deliveries from `updates` itself: every update but its own, in
    /// slice order. A bus with a fault plan is left untouched and
    /// returns false.
    ///
    /// # Panics
    /// Panics if the bus has no fault plan and any `update.sender` is
    /// out of range.
    pub(crate) fn account_complete(&mut self, updates: &[ModelUpdate]) -> bool {
        if self.faults.is_some() {
            return false;
        }
        let n = self.len();
        let peers = n as u64 - 1;
        for u in updates {
            assert!(u.sender < n, "sender {} out of range", u.sender);
            self.state.stats.add(&BusStats {
                messages: peers,
                bytes: peers * self.codec.wire_update_bytes(u) as u64,
                logical_bytes: peers * u.byte_size() as u64,
                ..BusStats::default()
            });
        }
        true
    }

    /// Traffic so far.
    pub fn stats(&self) -> BusStats {
        self.state.stats
    }

    /// Simulated communication time spent so far, seconds, including
    /// straggler delay penalties.
    pub fn simulated_seconds(&self) -> f64 {
        let s = &self.state.stats;
        self.latency.seconds(s.messages, s.bytes) + s.delay_seconds
    }

    /// Captures the complete bus state (statistics and any parked
    /// straggler queues) without disturbing it.
    pub fn export_state(&self) -> BusState {
        self.state.clone()
    }

    /// Restores state captured with [`BroadcastBus::export_state`] into
    /// a freshly built bus of the same shape.
    ///
    /// # Errors
    /// Rejects states whose parked queues are not one per participant,
    /// or that carry parked stragglers when this bus has no fault plan.
    pub fn restore_state(&mut self, state: &BusState) -> Result<(), String> {
        let n = self.len();
        if state.parked_ready.len() != n || state.parked_staged.len() != n {
            return Err(format!(
                "bus state has parked queues for {}/{} receivers, bus has {n}",
                state.parked_ready.len(),
                state.parked_staged.len()
            ));
        }
        let parked = state.parked_ready.iter().chain(&state.parked_staged);
        if self.faults.is_none() && parked.flatten().next().is_some() {
            return Err(
                "bus state carries parked stragglers but this bus has no fault plan".into(),
            );
        }
        self.state = state.clone();
        Ok(())
    }
}

/// Serializable snapshot of a [`BroadcastBus`], for checkpointing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BusState {
    /// Traffic counters (the latency model is linear in these, so
    /// restoring them reproduces final simulated-seconds exactly).
    pub stats: BusStats,
    /// Parked stragglers surfacing at the next delivery, per receiver.
    pub parked_ready: Vec<Vec<ModelUpdate>>,
    /// Parked stragglers surfacing one delivery later, per receiver.
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

    /// One round of model 0 on `bus`; returns the inboxes.
    fn deliver(bus: &mut BroadcastBus, updates: &[ModelUpdate]) -> Vec<Vec<Mail>> {
        let mut inboxes = Vec::new();
        bus.deliver(updates, 0, &mut inboxes);
        inboxes
    }

    #[test]
    fn delivery_reaches_everyone_but_sender() {
        let mut bus = BroadcastBus::new(3, LatencyModel::lan());
        let mut inboxes = vec![vec![Mail::Sent(9)]; 5];
        bus.deliver(&[update(0, 4)], 0, &mut inboxes);
        // One inbox per residence, each refilled: intact deliveries
        // index the delivered slice.
        assert_eq!(inboxes, [vec![], vec![Mail::Sent(0)], vec![Mail::Sent(0)]]);
        // A round with nothing sent leaves every inbox empty.
        bus.deliver(&[], 0, &mut inboxes);
        assert!(inboxes.iter().all(Vec::is_empty));
    }

    #[test]
    fn stats_count_per_delivery() {
        let mut bus = BroadcastBus::new(4, LatencyModel::lan());
        let u = update(1, 10);
        let size = u.byte_size() as u64;
        deliver(&mut bus, &[u]);
        let s = bus.stats();
        assert_eq!(s.messages, 3);
        assert_eq!(s.bytes, 3 * size);
    }

    #[test]
    fn single_participant_broadcast_is_free() {
        let mut bus = BroadcastBus::new(1, LatencyModel::lan());
        deliver(&mut bus, &[update(0, 10)]);
        assert_eq!(bus.stats(), BusStats::default());
    }

    #[test]
    fn simulated_seconds_follow_latency_model() {
        let latency = LatencyModel {
            per_message_s: 1.0,
            per_byte_s: 0.0,
        };
        let mut bus = BroadcastBus::new(3, latency);
        deliver(&mut bus, &[update(0, 1)]);
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
            let updates: Vec<ModelUpdate> = (0..4).map(|s| update(s, 8 + s)).collect();
            let mut pair = bus();
            deliver(&mut pair, &updates);
            let mut clean = bus();
            assert!(clean.account_complete(&updates), "{codec:?}");
            assert_eq!(clean.stats(), pair.stats(), "{codec:?}");
            assert_eq!(clean.export_state(), pair.export_state(), "{codec:?}");
            assert_eq!(
                clean.simulated_seconds().to_bits(),
                pair.simulated_seconds().to_bits()
            );
        }
    }

    #[test]
    fn only_a_bus_without_a_fault_plan_accounts_a_complete_round() {
        let updates: Vec<ModelUpdate> = (0..3).map(|s| update(s, 4)).collect();
        let lossy = FaultConfig {
            loss_rate: 0.1,
            ..FaultConfig::default()
        };
        let mut faulty = BroadcastBus::with_faults(3, LatencyModel::lan(), &lossy);
        let before = faulty.export_state();
        assert!(!faulty.account_complete(&updates));
        assert_eq!(faulty.export_state(), before, "must stay untouched");
    }

    #[test]
    fn delivery_keeps_the_rounds_model_and_discards_the_rest() {
        let with_model = |model_id| ModelUpdate {
            model_id,
            ..update(0, 4)
        };
        let sent = [with_model(7), with_model(3), with_model(7)];
        let mut inboxes = Vec::new();
        let mut bus = BroadcastBus::new(2, LatencyModel::lan());
        bus.deliver(&sent, 7, &mut inboxes);
        assert_eq!(inboxes[1], [Mail::Sent(0), Mail::Sent(2)]);
        assert_eq!(bus.stats().messages, 3, "filtered mail still travelled");

        // Stragglers surface at the next delivery, whatever its model:
        // those of another model are discarded, not left queued.
        let cfg = FaultConfig {
            straggler_rate: 1.0,
            ..FaultConfig::default()
        };
        let mut bus = BroadcastBus::with_faults(2, LatencyModel::lan(), &cfg);
        bus.deliver(&sent, 7, &mut inboxes);
        assert!(inboxes[1].is_empty());
        bus.deliver(&[], 3, &mut inboxes);
        assert_eq!(inboxes[1], [Mail::Owned(with_model(3))]);
        bus.deliver(&[], 7, &mut inboxes);
        assert!(inboxes[1].is_empty());
        let state = bus.export_state();
        assert!(state
            .parked_ready
            .iter()
            .chain(&state.parked_staged)
            .all(Vec::is_empty));
    }

    #[test]
    fn inactive_fault_config_changes_nothing() {
        let mut plain = BroadcastBus::new(3, LatencyModel::lan());
        let mut faulty = BroadcastBus::with_faults(3, LatencyModel::lan(), &FaultConfig::default());
        let a = deliver(&mut plain, &[update(0, 4)]);
        let b = deliver(&mut faulty, &[update(0, 4)]);
        assert_eq!(plain.stats(), faulty.stats());
        assert_eq!(a, b);
    }

    #[test]
    fn total_loss_drops_everything_with_counters() {
        let cfg = FaultConfig {
            loss_rate: 1.0,
            ..FaultConfig::default()
        };
        let mut bus = BroadcastBus::with_faults(4, LatencyModel::lan(), &cfg);
        let inboxes = deliver(&mut bus, &[update(0, 8)]);
        let s = bus.stats();
        assert_eq!(s.messages, 0);
        assert_eq!(s.bytes, 0);
        assert_eq!(s.dropped_loss, 3);
        assert!(inboxes.iter().all(Vec::is_empty));
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
            let mut per_inbox = Vec::new();
            for round in 0..20u64 {
                let updates: Vec<ModelUpdate> = (0..5)
                    .map(|sender| update_round(sender, 4, round))
                    .collect();
                per_inbox.push(deliver(&mut bus, &updates));
            }
            (bus.stats(), per_inbox)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stragglers_arrive_one_round_late_and_pay_latency() {
        let cfg = FaultConfig {
            straggler_rate: 1.0,
            ..FaultConfig::default()
        };
        let latency = LatencyModel {
            per_message_s: 1.0,
            per_byte_s: 0.0,
        };
        let mut bus = BroadcastBus::with_faults(2, latency, &cfg);
        let sent = update(0, 4);
        // This round: parked, as an owned copy.
        assert!(deliver(&mut bus, std::slice::from_ref(&sent))[1].is_empty());
        assert_eq!(
            bus.export_state().parked_ready[1],
            std::slice::from_ref(&sent)
        );
        // Next round: surfaces.
        assert_eq!(deliver(&mut bus, &[])[1], [Mail::Owned(sent)]);
        // The round after: gone.
        assert!(deliver(&mut bus, &[])[1].is_empty());
        let s = bus.stats();
        assert_eq!(s.delayed, 1);
        assert_eq!(s.messages, 1);
        // 1 message * 1 s nominal + the straggler penalty on that
        // delivery.
        assert!((bus.simulated_seconds() - (1.0 + STRAGGLER_DELAY)).abs() < 1e-12);
    }

    #[test]
    fn restored_stragglers_keep_their_queue_position() {
        let cfg = FaultConfig {
            straggler_rate: f64::MIN_POSITIVE,
            ..FaultConfig::default()
        };
        let state = BusState {
            stats: BusStats::default(),
            parked_ready: vec![vec![], vec![update_round(0, 4, 1)]],
            parked_staged: vec![vec![update_round(1, 4, 2)], vec![]],
        };
        let mut bus = BroadcastBus::with_faults(2, LatencyModel::lan(), &cfg);
        bus.restore_state(&state).unwrap();
        assert_eq!(bus.export_state(), state);
        let first = deliver(&mut bus, &[]);
        assert_eq!(first[1], [Mail::Owned(update_round(0, 4, 1))]);
        assert!(first[0].is_empty());
        assert_eq!(
            deliver(&mut bus, &[])[0],
            [Mail::Owned(update_round(1, 4, 2))]
        );

        // Parked mail needs a fault plan, and one queue per receiver.
        let mut plain = BroadcastBus::new(2, LatencyModel::lan());
        assert!(plain.restore_state(&state).is_err());
        let mut wide = BroadcastBus::with_faults(3, LatencyModel::lan(), &cfg);
        assert!(wide.restore_state(&state).is_err());
    }

    #[test]
    fn corrupted_deliveries_are_flagged_and_damaged() {
        let cfg = FaultConfig {
            corrupt_rate: 1.0,
            ..FaultConfig::default()
        };
        let mut bus = BroadcastBus::with_faults(2, LatencyModel::lan(), &cfg);
        let clean = update(0, 8);
        let inboxes = deliver(&mut bus, std::slice::from_ref(&clean));
        let [Mail::Owned(damaged)] = &inboxes[1][..] else {
            panic!("expected one owned, damaged copy: {:?}", inboxes[1]);
        };
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
        deliver(&mut bus, &[update(0, 4)]);
        let s = bus.stats();
        assert_eq!(s.messages, 0);
        assert_eq!(s.dropped_offline, 2);
    }

    #[test]
    fn raw_codec_reports_equal_wire_and_logical_bytes() {
        let mut bus = BroadcastBus::new(3, LatencyModel::lan());
        assert!(bus.codec().is_raw());
        deliver(&mut bus, &[update(0, 10)]);
        let s = bus.stats();
        assert_eq!(s.bytes, s.logical_bytes);
        assert_ne!(s.bytes, 0);
    }

    #[test]
    fn compressed_codec_shrinks_wire_but_not_logical_bytes() {
        let codec = PayloadCodec::QuantizedI8 {
            per_layer_scale: true,
        };
        let mut bus =
            BroadcastBus::with_codec(3, LatencyModel::lan(), &FaultConfig::default(), codec);
        let u = update(0, 100);
        let logical = u.byte_size() as u64;
        let wire = codec.wire_update_bytes(&u) as u64;
        assert!(wire < logical);
        deliver(&mut bus, &[u]);
        let s = bus.stats();
        assert_eq!(s.bytes, 2 * wire);
        assert_eq!(s.logical_bytes, 2 * logical);
        // Simulated latency is paid on wire bytes.
        let expected = bus.latency.seconds(2, 2 * wire);
        assert!((bus.simulated_seconds() - expected).abs() < 1e-15);
    }
}
