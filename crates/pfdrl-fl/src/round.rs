//! The decentralized-FedAvg round engine: one broadcast-merge round over
//! a column of homogeneous models, with pooled update buffers and a
//! per-home merge that runs in parallel across homes on large columns.
//!
//! The seed implementation of a DFL round was O(N²·params) and fully
//! sequential: every home exported a fresh `ModelUpdate`, broadcast it,
//! then each home re-averaged its local model against each of the N−1
//! updates it received. [`DflRound::run`] keeps that arithmetic
//! bit-for-bit (pinned against [`dfl_round_reference`], the retained
//! sequential oracle) while
//!
//! * filling export buffers from a reusing [`UpdatePool`],
//! * broadcasting `Arc`-shared payloads (in home order — mailbox arrival
//!   order feeds the merge float-sum order, so it must stay fixed),
//! * merging every home in parallel once the column holds at least
//!   `2 × MERGE_MIN_HOMES` homes (each home's merge is independent once
//!   the bus has delivered).
//!
//! Export, drain and the fast path's payload checks and tree sum stay
//! sequential: measured one thread wide against two on a 2-vCPU host
//! (paper-shape DQN columns of 16 to 669 homes), none of them came out
//! faster in parallel, because a thread spawn costs about 40 µs there and
//! each is a short memory-bound pass. The merge paid from 64 homes on
//! (per-home 0.54×, shared sum 0.90× at 669 homes).
//!
//! The engine is the column stage of both topologies: the `PerHome`
//! default runs [`DflRound::run`] on one fleet bus, and every shard of a
//! [`HierarchicalRound`](crate::HierarchicalRound) runs its exchange
//! phase, then falls back to this module's per-home merge for any home
//! the hierarchy's O(N) shared-sum fast path cannot take.

use crate::aggregate::{
    fill_update, merge_base_layers, merge_updates_with, snapshot_update, MergePolicy,
};
use crate::bus::BroadcastBus;
use crate::codec::ModelUpdate;
use crate::personalization::LayerSplit;
use pfdrl_nn::Layered;
use rayon::prelude::*;
use std::sync::Arc;

/// Reuses `ModelUpdate` buffers across federation rounds so the export
/// phase stops allocating fresh tensors per home per round. Buffers
/// come back once every holder (mailboxes, merge loops) has dropped its
/// handle; payloads still parked in a straggler queue simply stay
/// in flight until they surface.
#[derive(Default)]
pub struct UpdatePool {
    free: Vec<ModelUpdate>,
    inflight: Vec<Arc<ModelUpdate>>,
}

impl UpdatePool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out a buffer, recycled when available.
    fn take(&mut self) -> ModelUpdate {
        self.free.pop().unwrap_or_default()
    }

    /// Returns an unshared buffer directly to the pool.
    fn put(&mut self, update: ModelUpdate) {
        self.free.push(update);
    }

    /// Takes ownership of a round's sent payloads and reclaims every
    /// one nothing else still references (layer/param capacity kept).
    fn reclaim(&mut self, sent: &mut Vec<Arc<ModelUpdate>>) {
        self.inflight.append(sent);
        let mut i = 0;
        while i < self.inflight.len() {
            if Arc::strong_count(&self.inflight[i]) == 1 {
                let arc = self.inflight.swap_remove(i);
                match Arc::try_unwrap(arc) {
                    Ok(update) => self.free.push(update),
                    Err(arc) => {
                        // Raced with a late reader; try again next round.
                        self.inflight.push(arc);
                        i += 1;
                    }
                }
            } else {
                i += 1;
            }
        }
    }

    /// Buffers ready for reuse.
    pub fn free_buffers(&self) -> usize {
        self.free.len()
    }

    /// Payloads still referenced outside the pool (parked stragglers,
    /// undrained mailboxes).
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }
}

/// Inputs of one federation round over one model column (or, for
/// [`HierarchicalRound::run`](crate::HierarchicalRound::run), over the
/// whole fleet).
pub struct RoundParams<'a> {
    /// Federation round clock (staleness reference).
    pub round: u64,
    /// Model id stamped on broadcasts and used to key the drains.
    pub model_id: u64,
    /// `Some(alpha)`: broadcast/merge only the first `alpha` base layers
    /// (PFDRL layer split). `None`: full-model DFL.
    pub alpha: Option<usize>,
    /// Merge policy (quorum, staleness decay/bound).
    pub policy: &'a MergePolicy,
    /// Per-home upload participation mask (`None` = everyone). A
    /// non-participating (quarantined) home broadcasts nothing but
    /// still drains and merges what it receives, so it keeps learning
    /// from healthy peers without contaminating them. Any withheld
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
    /// Bytes of payloads broadcast this round (one Arc-shared copy per
    /// sender — the column's resident federation footprint).
    pub payload_bytes: u64,
}

/// Fewest homes a merge thread is given: a column under twice this
/// merges on the calling thread, where the spawn would cost more than
/// the merge it saves.
pub(crate) const MERGE_MIN_HOMES: usize = 32;

/// The reusable round engine. Holds the buffer pool and per-home drain
/// buffers, so steady-state rounds allocate almost nothing (one `Arc`
/// control block per broadcast is the floor).
#[derive(Default)]
pub struct DflRound {
    pool: UpdatePool,
    /// Export staging, one buffer per home, before Arc-wrapping.
    bufs: Vec<ModelUpdate>,
    /// This round's broadcast payloads, in sender order.
    sent: Vec<Arc<ModelUpdate>>,
    /// Per-home drain buffers (arrival order, keyed by model id).
    received: Vec<Vec<Arc<ModelUpdate>>>,
}

impl DflRound {
    pub fn new() -> Self {
        Self::default()
    }

    /// The engine's buffer pool (observability / tests).
    pub fn pool(&self) -> &UpdatePool {
        &self.pool
    }

    /// This round's broadcast payloads, in sender order (valid between
    /// [`Self::exchange`] and [`Self::release`]).
    pub(crate) fn sent(&self) -> &[Arc<ModelUpdate>] {
        &self.sent
    }

    /// Each home's deliveries this round, in arrival order (same
    /// validity as [`Self::sent`]).
    pub(crate) fn received(&self) -> &[Vec<Arc<ModelUpdate>>] {
        &self.received
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
        bus: &BroadcastBus,
        p: &RoundParams<'_>,
    ) {
        let n = models.len();
        assert!(n > 0, "federation round over no models");
        assert_eq!(n, bus.len(), "model column does not match bus size");
        if let Some(mask) = p.participants {
            assert_eq!(mask.len(), n, "participation mask does not match fleet");
        }
        self.exchange(models, bus, p);
        models
            .par_iter_mut()
            .zip(self.received.par_iter())
            .with_min_len(MERGE_MIN_HOMES)
            .for_each(|(model, received)| merge_received(&mut **model, received, p));
        self.release();
    }

    /// Phase 1 of a round: export pooled buffers, broadcast in home
    /// order and drain every mailbox.
    pub(crate) fn exchange<M: Layered + Send + Sync + ?Sized>(
        &mut self,
        models: &mut [&mut M],
        bus: &BroadcastBus,
        p: &RoundParams<'_>,
    ) -> Exchange {
        let n = models.len();
        let total_layers = models[0].layer_count();
        let layer_end = match p.alpha {
            Some(a) => LayerSplit::new(a, total_layers).alpha,
            None => total_layers,
        };

        // Export: fill pooled buffers.
        while self.bufs.len() < n {
            self.bufs.push(self.pool.take());
        }
        while self.bufs.len() > n {
            let extra = self.bufs.pop().expect("len checked");
            self.pool.put(extra);
        }
        let (round, model_id) = (p.round, p.model_id);
        let codec = bus.codec();
        let participants = p.participants;
        self.bufs
            .iter_mut()
            .zip(models.iter())
            .enumerate()
            .for_each(|(home, (buf, model))| {
                buf.sender = home;
                buf.round = round;
                buf.model_id = model_id;
                fill_update(&**model, 0..layer_end, buf);
                // Lossy uplink compression happens at export: peers
                // receive exactly the values the wire would carry
                // (fast path and per-home fallback see identical
                // payloads), while the local model stays raw.
                if !codec.is_raw() && participants.is_none_or(|m| m[home]) {
                    codec.transform(buf);
                }
            });

        // Broadcast the round as one batched pass (one mailbox lock per
        // receiver); deliveries land in home order per receiver, which
        // is the arrival order the merge float-sum bit-identity pin
        // relies on — identical to the historical per-sender loop.
        // Withheld (quarantined) homes upload nothing; their staged
        // buffer goes straight back to the pool.
        self.sent.clear();
        for (home, buf) in self.bufs.drain(..).enumerate() {
            if p.participants.is_none_or(|m| m[home]) {
                self.sent.push(Arc::new(buf));
            } else {
                self.pool.put(buf);
            }
        }
        bus.broadcast_all(&self.sent);

        // Drain: per-home keyed drains.
        self.received.truncate(n);
        while self.received.len() < n {
            self.received.push(Vec::new());
        }
        for (home, buf) in self.received.iter_mut().enumerate() {
            bus.drain_model_into(home, model_id, buf);
        }

        // Payload bytes staged for this round (one copy per sender),
        // measured at the codec's wire size so `peak_shard_bytes` and
        // the `max_shard_bytes` budget reflect real uplink cost.
        // Exactly 8 B/param under `Raw`.
        let payload_bytes: u64 = self
            .sent
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

    /// Ends a round: releases the round's payload handles so the pool
    /// can reclaim them.
    pub(crate) fn release(&mut self) {
        for buf in self.received.iter_mut() {
            buf.clear();
        }
        self.pool.reclaim(&mut self.sent);
    }
}

/// The per-home merge: `model` averaged with every update it received
/// this round under `p.policy` (base layers `0..alpha` only when
/// `p.alpha` is set). Invalid updates are rejected inside the validated
/// merge; a layer that misses the quorum keeps the local parameters.
pub(crate) fn merge_received<M: Layered + ?Sized>(
    model: &mut M,
    received: &[Arc<ModelUpdate>],
    p: &RoundParams<'_>,
) {
    let _ = match p.alpha {
        Some(a) => merge_base_layers(model, received, a, p.round, p.policy),
        None => merge_updates_with(model, received, p.round, p.policy),
    };
}

/// The retained sequential reference: exactly the seed's per-home round
/// — allocate a fresh update per home, broadcast, drain everything,
/// filter by model id, merge one home after another. Property tests pin
/// [`DflRound::run`] byte-identical to this under adversarial fault
/// plans.
pub fn dfl_round_reference<M: Layered + ?Sized>(
    models: &mut [&mut M],
    bus: &BroadcastBus,
    round: u64,
    model_id: u64,
    alpha: Option<usize>,
    policy: &MergePolicy,
) {
    for (home, model) in models.iter().enumerate() {
        let update = match alpha {
            Some(a) => {
                LayerSplit::new(a, model.layer_count()).base_update(&**model, home, round, model_id)
            }
            None => snapshot_update(&**model, home, round, model_id),
        };
        bus.broadcast(update);
    }
    for (home, model) in models.iter_mut().enumerate() {
        let updates = bus.drain(home);
        let refs: Vec<&ModelUpdate> = updates
            .iter()
            .map(|u| u.as_ref())
            .filter(|u| u.model_id == model_id)
            .collect();
        match alpha {
            Some(a) => {
                let split = LayerSplit::new(a, model.layer_count());
                let _ = split.merge_base_with(&mut **model, &refs, round, policy);
            }
            None => {
                let _ = merge_updates_with(&mut **model, &refs, round, policy);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::LatencyModel;
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

    fn run_engine(
        models: &mut [Mlp],
        bus: &BroadcastBus,
        rounds: u64,
        alpha: Option<usize>,
        policy: &MergePolicy,
    ) {
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
                    policy,
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
            let policy = MergePolicy::default();
            let bus_a = BroadcastBus::new(5, LatencyModel::lan());
            let bus_b = BroadcastBus::new(5, LatencyModel::lan());
            run_engine(&mut a, &bus_a, 3, alpha, &policy);
            for round in 0..3 {
                let mut col: Vec<&mut Mlp> = b.iter_mut().collect();
                dfl_round_reference(&mut col, &bus_b, round, 0, alpha, &policy);
            }
            assert_eq!(bits(&a), bits(&b), "alpha={alpha:?}");
            assert_eq!(bus_a.stats(), bus_b.stats());
        }
    }

    #[test]
    fn pool_reclaims_buffers_between_rounds() {
        let mut models = fleet(4, 2);
        let bus = BroadcastBus::new(4, LatencyModel::lan());
        let mut engine = DflRound::new();
        let policy = MergePolicy::default();
        for round in 0..3 {
            let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
            engine.run(
                &mut col,
                &bus,
                &RoundParams {
                    round,
                    model_id: 0,
                    alpha: None,
                    policy: &policy,
                    participants: None,
                },
            );
            // Fault-free: every payload is drained and dropped within
            // the round, so all buffers return to the pool.
            assert_eq!(engine.pool().free_buffers(), 4, "round {round}");
            assert_eq!(engine.pool().in_flight(), 0, "round {round}");
        }
    }

    #[test]
    fn withheld_home_uploads_nothing_but_still_merges() {
        let n = 4;
        let policy = MergePolicy::default();
        let mask = [true, false, true, true]; // home 1 quarantined

        let mut models = fleet(n, 13);
        let before = bits(&models);
        let bus = BroadcastBus::new(n, LatencyModel::lan());
        let mut engine = DflRound::new();
        let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
        engine.run(
            &mut col,
            &bus,
            &RoundParams {
                round: 0,
                model_id: 0,
                alpha: None,
                policy: &policy,
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
        let bus_o = BroadcastBus::new(n, LatencyModel::lan());
        for (home, model) in oracle.iter().enumerate() {
            if mask[home] {
                bus_o.broadcast(snapshot_update(model, home, 0, 0));
            }
        }
        for (home, model) in oracle.iter_mut().enumerate() {
            let updates = bus_o.drain(home);
            let refs: Vec<&ModelUpdate> = updates.iter().map(|u| u.as_ref()).collect();
            let _ = merge_updates_with(model, &refs, 0, &policy);
        }
        assert_eq!(bits(&models), bits(&oracle));

        // All buffers return to the pool, including the withheld one.
        assert_eq!(engine.pool().free_buffers(), n);
        assert_eq!(engine.pool().in_flight(), 0);
    }

    #[test]
    fn full_participation_mask_is_identical_to_none() {
        let policy = MergePolicy::default();
        let mask = vec![true; 5];
        let mut with_mask = fleet(5, 17);
        let mut without = fleet(5, 17);
        let bus_a = BroadcastBus::new(5, LatencyModel::lan());
        let bus_b = BroadcastBus::new(5, LatencyModel::lan());
        let mut engine = DflRound::new();
        let mut col: Vec<&mut Mlp> = with_mask.iter_mut().collect();
        engine.run(
            &mut col,
            &bus_a,
            &RoundParams {
                round: 0,
                model_id: 0,
                alpha: Some(2),
                policy: &policy,
                participants: Some(&mask),
            },
        );
        run_engine(&mut without, &bus_b, 1, Some(2), &policy);
        assert_eq!(bits(&with_mask), bits(&without));
        assert_eq!(bus_a.stats(), bus_b.stats());
    }

    #[test]
    fn single_home_round_is_a_no_op_merge() {
        let mut models = fleet(1, 9);
        let before = bits(&models);
        let bus = BroadcastBus::new(1, LatencyModel::lan());
        run_engine(&mut models, &bus, 1, None, &MergePolicy::default());
        assert_eq!(bits(&models), before);
    }
}
