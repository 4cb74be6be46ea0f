//! The decentralized-FedAvg round engine: one broadcast-merge round over
//! a column of homogeneous models, with reused export buffers and a
//! per-home merge that runs in parallel across homes on large columns.
//!
//! The seed implementation of a DFL round was O(N²·params) and fully
//! sequential: every home exported a fresh `ModelUpdate`, broadcast it,
//! then each home re-averaged its local model against each of the N−1
//! updates it received. [`DflRound::run`] keeps that arithmetic
//! bit-for-bit (pinned against [`dfl_round_reference`], the retained
//! sequential oracle) while
//!
//! * exporting into buffers the engine keeps across rounds, one per
//!   sender, in home order (arrival order feeds the merge float-sum
//!   order, so it must stay fixed),
//! * delivering the round in one bus call over those buffers: a bus
//!   without a fault plan only accounts the complete round, and each
//!   home's deliveries are the round's payloads minus its own, read in
//!   place in sender order; a bus with a fault plan delivers pair by
//!   pair into per-home inboxes of payload indices and owned copies,
//! * merging every home in parallel once the column holds at least
//!   `2 × MERGE_MIN_HOMES` homes (each home's merge is independent once
//!   the bus has delivered).
//!
//! Pair-by-pair delivery stays the oracle for the complete round.
//!
//! Export, delivery and the fast path's payload checks and tree sum
//! stay sequential within a column: measured one thread wide against
//! two on a 2-vCPU host (paper-shape DQN columns of 16 to 669 homes),
//! none of them came out faster in parallel, because a thread spawn
//! costs about 40 µs there and each is a short memory-bound pass. The
//! merge paid from 64 homes on (per-home 0.54×, shared sum 0.90× at 669
//! homes).
//!
//! The engine is the column stage of both topologies: the `PerHome`
//! default runs [`DflRound::run`] on one fleet bus, and every shard of a
//! [`HierarchicalRound`](crate::HierarchicalRound) runs its exchange
//! phase, then falls back to this module's per-home merge for any home
//! the hierarchy's O(N) shared-sum fast path cannot take.

use crate::aggregate::{fill_update, merge_layers, merge_updates, snapshot_update};
use crate::bus::{BroadcastBus, Mail};
use crate::codec::ModelUpdate;
use crate::personalization::LayerSplit;
use pfdrl_nn::Layered;
use rayon::prelude::*;

/// Inputs of one federation round over one model column (or, for
/// [`HierarchicalRound::run`](crate::HierarchicalRound::run), over the
/// whole fleet).
pub struct RoundParams<'a> {
    /// Federation round clock, stamped on every payload and keyed into
    /// the fault plan's decisions.
    pub round: u64,
    /// Model id stamped on broadcasts; a delivery keeps only this
    /// model's mail.
    pub model_id: u64,
    /// `Some(alpha)`: broadcast/merge only the first `alpha` base layers
    /// (PFDRL layer split). `None`: full-model DFL.
    pub alpha: Option<usize>,
    /// Per-home upload participation mask (`None` = everyone). A
    /// non-participating (quarantined) home broadcasts nothing but
    /// still receives and merges, so it keeps learning from healthy
    /// peers without contaminating them. Any withheld
    /// home disables the hierarchical fast path for the round — the
    /// broadcast set is no longer the full fleet, which is exactly the
    /// condition the per-home fallback exists for.
    pub participants: Option<&'a [bool]>,
}

/// What the exchange phase of a round staged (crate-internal; the
/// hierarchical engine stitches several of these into one fleet round).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Exchange {
    /// Layers staged and broadcast this round (alpha-resolved).
    pub layer_end: usize,
    /// Bytes of payloads broadcast this round (one copy per sender,
    /// which every receiver reads — the column's resident federation
    /// footprint).
    pub payload_bytes: u64,
}

/// Fewest homes a merge thread is given: a column under twice this
/// merges on the calling thread, where the spawn would cost more than
/// the merge it saves.
pub(crate) const MERGE_MIN_HOMES: usize = 32;

/// The reusable round engine. Holds the export buffers and per-home
/// inboxes, so steady-state rounds allocate almost nothing.
#[derive(Default)]
pub struct DflRound {
    /// Export buffers, reused across rounds: the first `sent` hold this
    /// round's payloads, in sender order.
    updates: Vec<ModelUpdate>,
    sent: usize,
    /// Per-home inboxes of a pair-by-pair round (arrival order, keyed
    /// by model id).
    inboxes: Vec<Vec<Mail>>,
    /// Whether this round was complete: the bus has no fault plan, so
    /// every home received the sent payloads minus its own and
    /// `inboxes` is unused.
    complete: bool,
}

impl DflRound {
    pub fn new() -> Self {
        Self::default()
    }

    /// This round's broadcast payloads, in sender order (valid from
    /// [`Self::exchange`] to the next round).
    pub(crate) fn sent(&self) -> &[ModelUpdate] {
        &self.updates[..self.sent]
    }

    /// Whether this round was complete (same validity as
    /// [`Self::sent`]): every home received every other payload.
    pub(crate) fn is_complete(&self) -> bool {
        self.complete
    }

    /// Each home's inbox in a pair-by-pair round, in arrival order
    /// (same validity as [`Self::sent`]; stale in a complete round).
    pub(crate) fn inboxes(&self) -> &[Vec<Mail>] {
        &self.inboxes
    }

    /// Home `home`'s deliveries this round, in arrival order: read in
    /// place from [`Self::sent`] in a complete round, through its inbox
    /// otherwise (same validity as [`Self::sent`]).
    pub(crate) fn deliveries(&self, home: usize) -> impl Iterator<Item = &ModelUpdate> {
        let sent = self.sent();
        let (complete, inbox): (&[ModelUpdate], &[Mail]) = if self.complete {
            (sent, &[])
        } else {
            (&[], &self.inboxes[home])
        };
        complete
            .iter()
            .filter(move |u| u.sender != home)
            .chain(inbox.iter().map(move |m| m.get(sent)))
    }

    /// Runs one broadcast-merge round over `models` (one model per
    /// home, same architecture) on `bus`: every home merges exactly
    /// what it received, bit-identical to [`dfl_round_reference`].
    ///
    /// # Panics
    /// Panics if `models` is empty, does not match the bus size, or
    /// `alpha` is out of range for the models.
    pub fn run<M: Layered + Send + Sync + ?Sized>(
        &mut self,
        models: &mut [&mut M],
        bus: &mut BroadcastBus,
        p: &RoundParams<'_>,
    ) {
        let n = models.len();
        assert!(n > 0, "federation round over no models");
        assert_eq!(n, bus.len(), "model column does not match bus size");
        if let Some(mask) = p.participants {
            assert_eq!(mask.len(), n, "participation mask does not match fleet");
        }
        self.exchange(models, bus, p);
        let round = &*self;
        models
            .par_iter_mut()
            .enumerate()
            .with_min_len(MERGE_MIN_HOMES)
            .for_each(|(home, model)| merge_received(&mut **model, round.deliveries(home), p));
    }

    /// Phase 1 of a round: export every participating home into the
    /// reused buffers, in home order, then deliver them in one bus call.
    /// A bus without a fault plan only accounts the complete round; any
    /// other bus delivers pair by pair into the per-home inboxes.
    pub(crate) fn exchange<M: Layered + Send + Sync + ?Sized>(
        &mut self,
        models: &mut [&mut M],
        bus: &mut BroadcastBus,
        p: &RoundParams<'_>,
    ) -> Exchange {
        let total_layers = models[0].layer_count();
        let layer_end = match p.alpha {
            Some(a) => LayerSplit::new(a, total_layers).alpha,
            None => total_layers,
        };

        // Export. Withheld (quarantined) homes upload nothing, so they
        // take no buffer.
        let codec = bus.codec();
        let mut sent = 0;
        for (home, model) in models.iter().enumerate() {
            if p.participants.is_some_and(|m| !m[home]) {
                continue;
            }
            if self.updates.len() == sent {
                self.updates.push(ModelUpdate::default());
            }
            let buf = &mut self.updates[sent];
            buf.sender = home;
            buf.round = p.round;
            buf.model_id = p.model_id;
            fill_update(&**model, 0..layer_end, buf);
            // Lossy uplink compression happens at export: peers
            // receive exactly the values the wire would carry (fast
            // path and per-home fallback see identical payloads),
            // while the local model stays raw.
            if !codec.is_raw() {
                codec.transform(buf);
            }
            sent += 1;
        }
        self.sent = sent;

        // Deliver in sender order, the arrival order the merge float
        // sum relies on.
        let updates = &self.updates[..sent];
        self.complete = bus.account_complete(updates);
        if !self.complete {
            bus.deliver(updates, p.model_id, &mut self.inboxes);
        }

        // Payload bytes staged for this round (one copy per sender),
        // measured at the codec's wire size so `peak_shard_bytes`
        // reflects real uplink cost. Exactly 8 B/param under `Raw`.
        let payload_bytes: u64 = updates
            .iter()
            .map(|u| {
                u.layers
                    .iter()
                    .map(|l| codec.payload_layer_bytes(l.params.len()) as u64)
                    .sum::<u64>()
            })
            .sum();
        Exchange {
            layer_end,
            payload_bytes,
        }
    }
}

/// The per-home merge: `model` averaged with every update it received
/// this round, in arrival order (base layers `0..alpha` only when
/// `p.alpha` is set). Invalid updates are rejected inside the validated
/// merge.
pub(crate) fn merge_received<'a, M: Layered + ?Sized>(
    model: &mut M,
    received: impl IntoIterator<Item = &'a ModelUpdate>,
    p: &RoundParams<'_>,
) {
    let end = p.alpha.unwrap_or(model.layer_count());
    let _ = merge_layers(model, received, 0..end, p.alpha);
}

/// The retained sequential reference: exactly the seed's per-home round
/// — allocate a fresh update per home, deliver them pair by pair (also
/// on a bus without a fault plan), keep the round's model id, merge one
/// home after another. Property tests pin [`DflRound::run`]
/// byte-identical to this under adversarial fault plans.
pub fn dfl_round_reference<M: Layered + ?Sized>(
    models: &mut [&mut M],
    bus: &mut BroadcastBus,
    round: u64,
    model_id: u64,
    alpha: Option<usize>,
) {
    let updates: Vec<ModelUpdate> = models
        .iter()
        .enumerate()
        .map(|(home, model)| match alpha {
            Some(a) => {
                LayerSplit::new(a, model.layer_count()).base_update(&**model, home, round, model_id)
            }
            None => snapshot_update(&**model, home, round, model_id),
        })
        .collect();
    let mut inboxes = Vec::new();
    bus.deliver(&updates, model_id, &mut inboxes);
    for (model, inbox) in models.iter_mut().zip(&inboxes) {
        let refs: Vec<&ModelUpdate> = inbox.iter().map(|m| m.get(&updates)).collect();
        match alpha {
            Some(a) => {
                let split = LayerSplit::new(a, model.layer_count());
                let _ = split.merge_base(&mut **model, &refs);
            }
            None => {
                let _ = merge_updates(&mut **model, &refs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::LatencyModel;
    use crate::fault::FaultConfig;
    use pfdrl_nn::{Activation, Mlp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fleet(n: usize, seed: u64) -> Vec<Mlp> {
        (0..n)
            .map(|i| {
                Mlp::new(
                    &[4, 8, 8, 3],
                    Activation::Relu,
                    Activation::Identity,
                    &mut StdRng::seed_from_u64(seed + i as u64),
                )
            })
            .collect()
    }

    fn bits(models: &[Mlp]) -> Vec<Vec<u64>> {
        models
            .iter()
            .map(|m| {
                m.export_all()
                    .into_iter()
                    .flatten()
                    .map(f64::to_bits)
                    .collect()
            })
            .collect()
    }

    fn run_engine(models: &mut [Mlp], bus: &mut BroadcastBus, rounds: u64, alpha: Option<usize>) {
        let mut engine = DflRound::new();
        for round in 0..rounds {
            let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
            engine.run(
                &mut col,
                bus,
                &RoundParams {
                    round,
                    model_id: 0,
                    alpha,
                    participants: None,
                },
            );
        }
    }

    #[test]
    fn per_home_engine_is_bit_identical_to_sequential_reference() {
        for alpha in [None, Some(2)] {
            let mut a = fleet(5, 11);
            let mut b = fleet(5, 11);
            let mut bus_a = BroadcastBus::new(5, LatencyModel::lan());
            let mut bus_b = BroadcastBus::new(5, LatencyModel::lan());
            run_engine(&mut a, &mut bus_a, 3, alpha);
            for round in 0..3 {
                let mut col: Vec<&mut Mlp> = b.iter_mut().collect();
                dfl_round_reference(&mut col, &mut bus_b, round, 0, alpha);
            }
            assert_eq!(bits(&a), bits(&b), "alpha={alpha:?}");
            assert_eq!(bus_a.stats(), bus_b.stats());
        }
    }

    #[test]
    fn idle_fault_plan_forces_per_pair_delivery_with_identical_bits() {
        // A fault plan whose one nonzero rate is f64::MIN_POSITIVE never
        // fires at this size, but any plan makes the bus deliver pair by
        // pair: every home merges through its inbox exactly what a
        // complete round reads in place, in the same order.
        let idle = FaultConfig {
            straggler_rate: f64::MIN_POSITIVE,
            ..FaultConfig::default()
        };
        for alpha in [None, Some(2)] {
            let run = |faults: &FaultConfig| {
                let mut models = fleet(5, 19);
                let mut bus = BroadcastBus::with_faults(5, LatencyModel::lan(), faults);
                let mut engine = DflRound::new();
                for round in 0..2 {
                    let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
                    let p = RoundParams {
                        round,
                        model_id: 0,
                        alpha,
                        participants: None,
                    };
                    engine.run(&mut col, &mut bus, &p);
                    assert_eq!(engine.is_complete(), !faults.is_active());
                }
                (bits(&models), bus.stats(), bus.export_state())
            };
            let (complete, per_pair) = (run(&FaultConfig::default()), run(&idle));
            let s = per_pair.1;
            assert_eq!((s.dropped_total(), s.delayed, s.corrupted), (0, 0, 0));
            assert_eq!(complete, per_pair, "alpha={alpha:?}");
        }
    }

    #[test]
    fn withheld_home_uploads_nothing_but_still_merges() {
        let n = 4;
        let mask = [true, false, true, true]; // home 1 quarantined

        let mut models = fleet(n, 13);
        let before = bits(&models);
        let mut bus = BroadcastBus::new(n, LatencyModel::lan());
        let mut engine = DflRound::new();
        let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
        engine.run(
            &mut col,
            &mut bus,
            &RoundParams {
                round: 0,
                model_id: 0,
                alpha: None,
                participants: Some(&mask),
            },
        );
        // Only 3 homes broadcast: 3 messages x (n-1) deliveries.
        assert_eq!(bus.stats().messages, 3 * (n as u64 - 1));
        // Everyone (including the quarantined home) merged peers, so
        // every model moved off its initial weights.
        assert_ne!(bits(&models), before);

        // The quarantined home's payload never reached its peers: an
        // oracle round over only the participating homes' updates must
        // reproduce every participant bit-for-bit.
        let mut oracle = fleet(n, 13);
        let mut bus_o = BroadcastBus::new(n, LatencyModel::lan());
        let sent: Vec<ModelUpdate> = oracle
            .iter()
            .enumerate()
            .filter(|&(home, _)| mask[home])
            .map(|(home, model)| snapshot_update(model, home, 0, 0))
            .collect();
        let mut inboxes = Vec::new();
        bus_o.deliver(&sent, 0, &mut inboxes);
        for (model, inbox) in oracle.iter_mut().zip(&inboxes) {
            let refs: Vec<&ModelUpdate> = inbox.iter().map(|m| m.get(&sent)).collect();
            let _ = merge_updates(model, &refs);
        }
        assert_eq!(bits(&models), bits(&oracle));
        assert_eq!(bus.stats(), bus_o.stats());
    }

    #[test]
    fn full_participation_mask_is_identical_to_none() {
        let mask = vec![true; 5];
        let mut with_mask = fleet(5, 17);
        let mut without = fleet(5, 17);
        let mut bus_a = BroadcastBus::new(5, LatencyModel::lan());
        let mut bus_b = BroadcastBus::new(5, LatencyModel::lan());
        let mut engine = DflRound::new();
        let mut col: Vec<&mut Mlp> = with_mask.iter_mut().collect();
        engine.run(
            &mut col,
            &mut bus_a,
            &RoundParams {
                round: 0,
                model_id: 0,
                alpha: Some(2),
                participants: Some(&mask),
            },
        );
        run_engine(&mut without, &mut bus_b, 1, Some(2));
        assert_eq!(bits(&with_mask), bits(&without));
        assert_eq!(bus_a.stats(), bus_b.stats());
    }

    #[test]
    fn single_home_round_is_a_no_op_merge() {
        let mut models = fleet(1, 9);
        let before = bits(&models);
        let mut bus = BroadcastBus::new(1, LatencyModel::lan());
        run_engine(&mut models, &mut bus, 1, None);
        assert_eq!(bits(&models), before);
    }
}
