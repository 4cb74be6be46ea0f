//! The decentralized-FedAvg round engine: one broadcast-merge round over
//! a column of homogeneous models, with pooled update buffers, a merge
//! that runs in parallel across homes on large columns, and an optional
//! O(N) shared-reduction fast path.
//!
//! The seed implementation of a DFL round was O(N²·params) and fully
//! sequential: every home exported a fresh `ModelUpdate`, broadcast it,
//! then each home re-averaged its local model against each of the N−1
//! updates it received. [`DflRound::run`] keeps that arithmetic
//! bit-for-bit on the default [`AggregationMode::PerHome`] path (pinned
//! against [`dfl_round_reference`], the retained sequential oracle) while
//!
//! * filling export buffers from a reusing [`UpdatePool`],
//! * broadcasting `Arc`-shared payloads (in home order — mailbox arrival
//!   order feeds the merge float-sum order, so it must stay fixed),
//! * merging every home in parallel once the column holds at least
//!   `2 × MERGE_MIN_HOMES` homes (each home's merge is independent once
//!   the bus has delivered).
//!
//! Export, drain, payload validation, eligibility and the tree sum stay
//! sequential: measured one thread wide against two on a 2-vCPU host
//! (paper-shape DQN columns of 16 to 669 homes), none of them came out
//! faster in parallel, because a thread spawn costs about 40 µs there and
//! each is a short memory-bound pass. The merge paid from 64 homes on
//! (`PerHome` 0.54×, `SharedSum` 0.90× at 669 homes).
//!
//! Under [`AggregationMode::SharedSum`] the engine additionally computes
//! the round's update sum `S = Σ_j u_j` once with a fixed-shape
//! tree-reduce and derives each home's merged model as
//! `(local_i + (S − u_i)) / N` — O(N·params) total instead of
//! O(N²·params). A home is only eligible when its mailbox provably saw
//! the complete fault-free round: exactly N−1 updates, each pointer-
//! identical to this round's broadcast payloads, in sender order. Any
//! deviation (loss, churn, straggling, corruption — stragglers surface
//! old Arcs, corruption re-wraps new ones) falls that home back to the
//! exact per-home merge of whatever it did receive.

use crate::aggregate::{
    fill_update, merge_base_layers, merge_updates_with, snapshot_update, AggregationMode,
    MergePolicy,
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

/// Inputs of one federation round over one model column.
pub struct RoundParams<'a> {
    /// The LAN bus connecting the column's homes.
    pub bus: &'a BroadcastBus,
    /// Federation round clock (staleness reference).
    pub round: u64,
    /// Model id stamped on broadcasts and used to key the drains.
    pub model_id: u64,
    /// `Some(alpha)`: broadcast/merge only the first `alpha` base layers
    /// (PFDRL layer split). `None`: full-model DFL.
    pub alpha: Option<usize>,
    /// Merge policy (quorum, staleness decay/bound).
    pub policy: &'a MergePolicy,
    /// Per-home reference path or shared-reduction fast path.
    pub mode: AggregationMode,
    /// Per-home upload participation mask (`None` = everyone). A
    /// non-participating (quarantined) home broadcasts nothing but
    /// still drains and merges what it receives, so it keeps learning
    /// from healthy peers without contaminating them. Any withheld
    /// home disables the shared-reduction fast path for the round —
    /// the broadcast set is no longer the full fleet, which is exactly
    /// the condition the per-home fallback machinery exists for.
    pub participants: Option<&'a [bool]>,
}

/// What one engine round did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundOutcome {
    /// Homes merged via the O(N) shared reduction.
    pub fast_path_homes: usize,
    /// Homes merged via the per-home path (always all of them under
    /// [`AggregationMode::PerHome`]).
    pub fallback_homes: usize,
}

/// What the exchange phase of a round observed (crate-internal; the
/// hierarchical engine stitches several of these into one fleet round).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExchangeOutcome {
    /// Layers staged and broadcast this round (alpha-resolved).
    pub layer_end: usize,
    /// Eligibility was probed and every broadcast payload validated
    /// (consistent shapes, all params finite).
    pub payloads_ok: bool,
    /// Bytes of payloads broadcast this round (one Arc-shared copy per
    /// sender — the column's resident federation footprint).
    pub payload_bytes: u64,
}

/// Number of updates summed per tree-reduce leaf. Fixed (never derived
/// from thread count) so the reduction shape — and therefore the exact
/// float rounding — is identical run to run on any machine.
pub(crate) const TREE_LEAF: usize = 16;

/// Fewest homes a merge thread is given: a column under twice this
/// merges on the calling thread, where the spawn would cost more than
/// the merge it saves.
const MERGE_MIN_HOMES: usize = 32;

/// Fixed-midpoint tree sum of layers `0..layers` across `updates`: the
/// shape depends only on the update count.
pub(crate) fn tree_sum(updates: &[Arc<ModelUpdate>], layers: usize) -> Vec<Vec<f64>> {
    if updates.len() <= TREE_LEAF {
        let mut acc: Vec<Vec<f64>> = (0..layers)
            .map(|l| updates[0].layers[l].params.clone())
            .collect();
        for u in &updates[1..] {
            for (a, lu) in acc.iter_mut().zip(u.layers.iter()) {
                for (x, p) in a.iter_mut().zip(lu.params.iter()) {
                    *x += p;
                }
            }
        }
        acc
    } else {
        let mid = updates.len() / 2;
        let mut left = tree_sum(&updates[..mid], layers);
        let right = tree_sum(&updates[mid..], layers);
        for (a, b) in left.iter_mut().zip(right.iter()) {
            for (x, y) in a.iter_mut().zip(b.iter()) {
                *x += y;
            }
        }
        left
    }
}

/// The reusable round engine. Holds the buffer pool and per-home
/// scratch, so steady-state rounds allocate almost nothing (one `Arc`
/// control block per broadcast is the floor).
#[derive(Default)]
pub struct DflRound {
    pool: UpdatePool,
    /// Export staging, one buffer per home, before Arc-wrapping.
    bufs: Vec<ModelUpdate>,
    /// This round's broadcast payloads, indexed by sender.
    sent: Vec<Arc<ModelUpdate>>,
    /// Per-home drain buffers (arrival order, keyed by model id).
    received: Vec<Vec<Arc<ModelUpdate>>>,
    /// Per-home fast-path eligibility for the current round.
    eligible: Vec<bool>,
    /// The tree-reduced update sum S, per layer (SharedSum only).
    shared: Vec<Vec<f64>>,
    /// Per-home merge scratch for the fast path.
    fast_scratch: Vec<Vec<f64>>,
}

impl DflRound {
    pub fn new() -> Self {
        Self::default()
    }

    /// The engine's buffer pool (observability / tests).
    pub fn pool(&self) -> &UpdatePool {
        &self.pool
    }

    /// This round's broadcast payloads, indexed by sender (valid
    /// between [`Self::exchange`] and [`Self::merge_with_sum`]).
    pub(crate) fn sent_payloads(&self) -> &[Arc<ModelUpdate>] {
        &self.sent
    }

    /// Homes currently marked fast-path eligible.
    pub(crate) fn eligible_count(&self) -> usize {
        self.eligible.iter().filter(|&&e| e).count()
    }

    /// Demotes every home to the per-home fallback (used when another
    /// shard of a hierarchical round failed validation).
    pub(crate) fn clear_eligibility(&mut self) {
        self.eligible.iter_mut().for_each(|e| *e = false);
    }

    /// Runs one broadcast-merge round over `models` (one model per
    /// home, same architecture). On [`AggregationMode::PerHome`] the
    /// result is bit-identical to [`dfl_round_reference`].
    ///
    /// # Panics
    /// Panics if `models` is empty, does not match the bus size, or
    /// `alpha` is out of range for the models.
    pub fn run<M: Layered + Send + Sync + ?Sized>(
        &mut self,
        models: &mut [&mut M],
        p: &RoundParams<'_>,
    ) -> RoundOutcome {
        let n = models.len();
        assert!(n > 0, "federation round over no models");
        assert_eq!(n, p.bus.len(), "model column does not match bus size");
        if let Some(mask) = p.participants {
            assert_eq!(mask.len(), n, "participation mask does not match fleet");
        }
        let full_round = p.participants.is_none_or(|m| m.iter().all(|&b| b));
        // The fast path is only probed when the quorum is meetable by a
        // complete round; any other AggregationMode (PerHome, or a
        // Hierarchical value routed here by mistake) takes the exact
        // per-home path.
        let quorum = p.policy.min_quorum.max(1);
        let probe = p.mode == AggregationMode::SharedSum && n >= 2 && full_round && quorum < n;
        let ex = self.exchange(models, p, probe);
        let fast_path_homes = self.eligible.iter().filter(|&&e| e).count();
        if fast_path_homes > 0 {
            self.shared = tree_sum(&self.sent, ex.layer_end);
        }
        // Reuse the retained sum buffer without aliasing `self` in the
        // merge pass; hierarchical callers pass a global sum instead.
        let shared = std::mem::take(&mut self.shared);
        let outcome = self.merge_with_sum(models, p, ex.layer_end, &shared, n as f64);
        self.shared = shared;
        outcome
    }

    /// Phase 1 of a round: export pooled buffers, broadcast in home
    /// order, drain every mailbox, and (when `probe`) compute per-home
    /// fast-path eligibility. `probe` must already fold in the caller's
    /// global preconditions (mode, fleet size, full participation,
    /// meetable quorum) — this phase only validates the payloads
    /// themselves and each home's arrival pattern.
    pub(crate) fn exchange<M: Layered + Send + Sync + ?Sized>(
        &mut self,
        models: &mut [&mut M],
        p: &RoundParams<'_>,
        probe: bool,
    ) -> ExchangeOutcome {
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
        let codec = p.bus.codec();
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
        p.bus.broadcast_all(&self.sent);

        // Drain: per-home keyed drains.
        self.received.truncate(n);
        while self.received.len() < n {
            self.received.push(Vec::new());
        }
        for (home, buf) in self.received.iter_mut().enumerate() {
            p.bus.drain_model_into(home, model_id, buf);
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

        // Fast-path eligibility. The whole column falls back when any
        // broadcast payload failed validation; a single home falls back
        // when its mailbox did not see exactly this round's payloads in
        // sender order. (A one-home column is trivially complete — its
        // mailbox correctly saw zero peers — which is what lets a
        // singleton shard still join the hierarchical global sum.)
        self.eligible.clear();
        self.eligible.resize(n, false);
        let mut payloads_ok = false;
        if probe && !self.sent.is_empty() {
            let sent = &self.sent;
            // Codecs that map every parameter to a finite value (int8
            // quantization) make the O(N·params) finiteness scan
            // redundant — shape validation suffices.
            let check_finite = !codec.guarantees_finite();
            payloads_ok = sent.iter().all(|u| {
                u.layers.len() == sent[0].layers.len()
                    && u.layers.iter().zip(sent[0].layers.iter()).all(|(a, b)| {
                        a.params.len() == b.params.len()
                            && (!check_finite || a.params.iter().all(|x| x.is_finite()))
                    })
            });
            if payloads_ok {
                let received = &self.received;
                self.eligible.iter_mut().enumerate().for_each(|(home, ok)| {
                    let r = &received[home];
                    *ok = r.len() == n - 1
                        && r.iter()
                            .zip((0..n).filter(|&j| j != home))
                            .all(|(u, j)| Arc::ptr_eq(u, &sent[j]));
                });
            }
        }
        ExchangeOutcome {
            layer_end,
            payloads_ok,
            payload_bytes,
        }
    }

    /// Phase 2 of a round: merge every home (in parallel on a column of
    /// at least `2 × MERGE_MIN_HOMES`), then release
    /// the round's payload handles back to the pool. Eligible homes
    /// apply `(local + (shared − u_i)) / count`; everything else
    /// replays the exact per-home merge on its received set. Flat
    /// callers pass this column's own tree sum and `count = n`;
    /// hierarchical callers pass the fleet-global sum and fleet size.
    pub(crate) fn merge_with_sum<M: Layered + Send + Sync + ?Sized>(
        &mut self,
        models: &mut [&mut M],
        p: &RoundParams<'_>,
        layer_end: usize,
        shared: &[Vec<f64>],
        count: f64,
    ) -> RoundOutcome {
        let n = models.len();
        let fast_path_homes = self.eligible.iter().filter(|&&e| e).count();
        {
            let sent = &self.sent;
            let eligible = &self.eligible;
            let received = &self.received;
            let policy = p.policy;
            let alpha = p.alpha;
            let round = p.round;
            self.fast_scratch.resize_with(n, Vec::new);
            models
                .par_iter_mut()
                .zip(self.fast_scratch.par_iter_mut())
                .enumerate()
                .with_min_len(MERGE_MIN_HOMES)
                .for_each(|(home, (model, scratch))| {
                    let model: &mut M = model;
                    if eligible[home] {
                        let own = &sent[home];
                        for (l, s) in shared.iter().enumerate().take(layer_end) {
                            model.export_layer_into(l, scratch);
                            let u = &own.layers[l].params;
                            for ((a, sv), uv) in scratch.iter_mut().zip(s.iter()).zip(u.iter()) {
                                *a = (*a + (*sv - *uv)) / count;
                            }
                            model.import_layer(l, scratch);
                        }
                    } else {
                        let r = &received[home][..];
                        match alpha {
                            Some(a) => {
                                let _ = merge_base_layers(model, r, a, round, policy);
                            }
                            None => {
                                let _ = merge_updates_with(model, r, round, policy);
                            }
                        }
                    }
                });
        }

        // Release the round's payload handles so the pool can reclaim.
        for buf in self.received.iter_mut() {
            buf.clear();
        }
        self.pool.reclaim(&mut self.sent);
        RoundOutcome {
            fast_path_homes,
            fallback_homes: n - fast_path_homes,
        }
    }
}

/// The retained sequential reference: exactly the seed's per-home round
/// — allocate a fresh update per home, broadcast, drain everything,
/// filter by model id, merge one home after another. Property tests pin
/// [`DflRound::run`] (PerHome mode) byte-identical to this under
/// adversarial fault plans.
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

    fn run_engine(
        models: &mut [Mlp],
        bus: &BroadcastBus,
        rounds: u64,
        alpha: Option<usize>,
        mode: AggregationMode,
        policy: &MergePolicy,
    ) -> RoundOutcome {
        let mut engine = DflRound::new();
        let mut last = RoundOutcome::default();
        for round in 0..rounds {
            let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
            last = engine.run(
                &mut col,
                &RoundParams {
                    bus,
                    round,
                    model_id: 0,
                    alpha,
                    policy,
                    mode,
                    participants: None,
                },
            );
        }
        last
    }

    #[test]
    fn per_home_engine_is_bit_identical_to_sequential_reference() {
        for alpha in [None, Some(2)] {
            let mut a = fleet(5, 11);
            let mut b = fleet(5, 11);
            let policy = MergePolicy::default();
            let bus_a = BroadcastBus::new(5, LatencyModel::lan());
            let bus_b = BroadcastBus::new(5, LatencyModel::lan());
            run_engine(&mut a, &bus_a, 3, alpha, AggregationMode::PerHome, &policy);
            for round in 0..3 {
                let mut col: Vec<&mut Mlp> = b.iter_mut().collect();
                dfl_round_reference(&mut col, &bus_b, round, 0, alpha, &policy);
            }
            assert_eq!(bits(&a), bits(&b), "alpha={alpha:?}");
            assert_eq!(bus_a.stats(), bus_b.stats());
        }
    }

    #[test]
    fn shared_sum_matches_per_home_within_tolerance() {
        let mut fast = fleet(12, 3);
        let mut slow = fleet(12, 3);
        let policy = MergePolicy::default();
        let bus_f = BroadcastBus::new(12, LatencyModel::lan());
        let bus_s = BroadcastBus::new(12, LatencyModel::lan());
        let out = run_engine(
            &mut fast,
            &bus_f,
            2,
            Some(2),
            AggregationMode::SharedSum,
            &policy,
        );
        assert_eq!(out.fast_path_homes, 12, "fault-free round must be fast");
        run_engine(
            &mut slow,
            &bus_s,
            2,
            Some(2),
            AggregationMode::PerHome,
            &policy,
        );
        for (f, s) in fast.iter().zip(slow.iter()) {
            for (lf, ls) in f.export_all().iter().zip(s.export_all().iter()) {
                for (x, y) in lf.iter().zip(ls.iter()) {
                    assert!((x - y).abs() <= 1e-12 * x.abs().max(1.0), "{x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn shared_sum_is_run_to_run_deterministic() {
        let run = || {
            let mut models = fleet(20, 7);
            let bus = BroadcastBus::new(20, LatencyModel::lan());
            run_engine(
                &mut models,
                &bus,
                3,
                None,
                AggregationMode::SharedSum,
                &MergePolicy::default(),
            );
            bits(&models)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shared_sum_falls_back_to_per_home_under_faults() {
        // Loss + corruption + stragglers: received sets differ from the
        // clean round, so every affected home must produce exactly the
        // per-home result.
        let cfg = FaultConfig {
            seed: 99,
            loss_rate: 0.3,
            corrupt_rate: 0.2,
            straggler_rate: 0.2,
            ..FaultConfig::default()
        };
        let policy = MergePolicy::default();
        let mut fast = fleet(6, 21);
        let mut slow = fleet(6, 21);
        let bus_f = BroadcastBus::with_faults(6, LatencyModel::lan(), &cfg);
        let bus_s = BroadcastBus::with_faults(6, LatencyModel::lan(), &cfg);
        let out = run_engine(
            &mut fast,
            &bus_f,
            4,
            None,
            AggregationMode::SharedSum,
            &policy,
        );
        run_engine(
            &mut slow,
            &bus_s,
            4,
            None,
            AggregationMode::PerHome,
            &policy,
        );
        assert!(
            out.fallback_homes > 0,
            "under 30% loss some home must fall back"
        );
        assert_eq!(
            bits(&fast),
            bits(&slow),
            "fallback homes must match the per-home path bit-for-bit"
        );
        assert_eq!(bus_f.stats(), bus_s.stats());
    }

    #[test]
    fn unmeetable_quorum_forces_whole_device_fallback() {
        let policy = MergePolicy {
            min_quorum: 10, // > n-1 = 3
            ..MergePolicy::default()
        };
        let mut models = fleet(4, 5);
        let before = bits(&models);
        let bus = BroadcastBus::new(4, LatencyModel::lan());
        let out = run_engine(
            &mut models,
            &bus,
            1,
            None,
            AggregationMode::SharedSum,
            &policy,
        );
        assert_eq!(out.fast_path_homes, 0);
        assert_eq!(out.fallback_homes, 4);
        // Per-home path under an unmet quorum keeps every local model.
        assert_eq!(bits(&models), before);
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
                &RoundParams {
                    bus: &bus,
                    round,
                    model_id: 0,
                    alpha: None,
                    policy: &policy,
                    mode: AggregationMode::PerHome,
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
        let out = engine.run(
            &mut col,
            &RoundParams {
                bus: &bus,
                round: 0,
                model_id: 0,
                alpha: None,
                policy: &policy,
                mode: AggregationMode::SharedSum,
                participants: Some(&mask),
            },
        );
        // A withheld home disables the shared fast path entirely.
        assert_eq!(out.fast_path_homes, 0);
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
            &RoundParams {
                bus: &bus_a,
                round: 0,
                model_id: 0,
                alpha: Some(2),
                policy: &policy,
                mode: AggregationMode::PerHome,
                participants: Some(&mask),
            },
        );
        run_engine(
            &mut without,
            &bus_b,
            1,
            Some(2),
            AggregationMode::PerHome,
            &policy,
        );
        assert_eq!(bits(&with_mask), bits(&without));
        assert_eq!(bus_a.stats(), bus_b.stats());
    }

    #[test]
    fn single_home_round_is_a_no_op_merge() {
        let mut models = fleet(1, 9);
        let before = bits(&models);
        let bus = BroadcastBus::new(1, LatencyModel::lan());
        for mode in [AggregationMode::PerHome, AggregationMode::SharedSum] {
            let out = run_engine(&mut models, &bus, 1, None, mode, &MergePolicy::default());
            assert_eq!(out.fast_path_homes, 0);
            assert_eq!(bits(&models), before);
        }
    }
}
