//! Hierarchical (two-level) federation and the O(N) shared-sum fast
//! path. Homes are partitioned into neighborhood shards; each shard
//! runs a [`DflRound`] exchange on its own bus, and a fixed-shape
//! top-level tree combines the per-shard partial sums into the
//! fleet-global S. One shard covering every home is the flat topology
//! (`Hierarchical { shards: 1 }`): its oracle is
//! [`dfl_round_reference`](crate::dfl_round_reference), whose traffic
//! it reproduces message for message and whose merged values it
//! matches within float-reassociation tolerance.
//!
//! **The shared sum.** A FedAvg home merges the mean of its local model
//! and the N−1 updates it received. In a complete, fault-free round
//! that mean is `(local_i + (S − u_i)) / N` with `S = Σ_j u_j`: one sum
//! per round instead of one per home, O(N·params) instead of
//! O(N²·params). A home is eligible only when its shard provably
//! delivered it the complete round. A shard bus without a fault plan
//! can only deliver everything, so its complete round marks every home
//! eligible. In a pair-by-pair round a home's inbox must be exactly the
//! intact payload slots `0..n_k` minus its own, in order. Any deviation
//! (loss, churn, straggling, corruption — a straggler or a corrupted
//! copy arrives as an owned update, never as a slot) falls that home
//! back to the exact per-home merge of what its neighborhood delivered.
//! An invalid broadcast payload anywhere or a withheld upload demotes
//! the whole fleet to the fallback.
//!
//! **Summing while hot.** Each shard takes its partial sum S_k in the
//! exchange phase, right after export, while its payloads are still in
//! cache; the top level only combines the partials. Payload shapes are
//! checked first, because the sum zips and would truncate a mismatch.
//! Under round-to-nearest a NaN or ±∞ term makes any float sum
//! non-finite, so a finite S_k proves every payload of the shard
//! finite. The exact per-payload scan runs only when S_k is not finite:
//! a poisoned payload fails it, while finite payloads whose sum
//! overflows pass it and stay valid.
//!
//! Determinism rules for the two-level reduction tree:
//!
//! 1. Shard membership is canonical: members ascend within a shard and
//!    shards are ordered by their smallest member, regardless of how
//!    the partition was produced. Two plans describing the same
//!    partition are therefore *equal*, and every downstream float sum
//!    sees the same operand order.
//! 2. Within a shard, broadcast order is member order and the partial
//!    sum S_k uses a fixed-midpoint tree over `TREE_LEAF`-update leaves
//!    whose shape depends only on the shard size.
//! 3. The top level combines `[S_0 … S_{K−1}]` in shard-index order
//!    with a fixed-midpoint binary tree — never a worker-count-derived
//!    shape — so results are byte-identical run to run on any machine.
//!
//! S is a plain sum of sums, so shards are weighted by their population
//! by construction (S_k = n_k · mean_k), and an eligible home merges
//! `(local + (S − u_i)) / N` with the fleet-global N.

use crate::bus::{BroadcastBus, BusState, BusStats, LatencyModel, Mail};
use crate::codec::{ModelUpdate, PayloadCodec};
use crate::fault::FaultConfig;
use crate::round::{merge_received, DflRound, RoundParams, MERGE_MIN_HOMES};
use pfdrl_nn::Layered;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// How homes are assigned to neighborhood shards. Both modes are pure
/// functions of (fleet size, shard count, per-home keys) — no RNG — so
/// the plan is reproducible from the config alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShardAssignment {
    /// Home `i` joins shard `i mod K`: maximally mixed shards, the
    /// baseline that ignores data distribution.
    #[default]
    RoundRobin,
    /// Homes are ordered by a per-home archetype key (the occupant
    /// archetype pfdrl-data assigns non-IID) and chunked into K
    /// contiguous, balanced groups: each shard is a neighborhood of
    /// similar device-usage mixes, the clustering play of Briggs et
    /// al. (arXiv:2105.13325).
    ArchetypeMix,
}

/// A canonical partition of homes `0..n` into non-empty shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Shard index per home.
    home_shard: Vec<u32>,
    /// Global home ids per shard, ascending within each shard; shards
    /// ordered by smallest member.
    members: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// Builds the plan for `n` homes. `shards` is clamped to `1..=n`
    /// so every shard is non-empty. `keys` (one per home) are required
    /// by [`ShardAssignment::ArchetypeMix`] and ignored otherwise.
    ///
    /// # Panics
    /// Panics if `n == 0`, or `ArchetypeMix` is requested without a
    /// full set of keys.
    pub fn build(
        n: usize,
        shards: usize,
        assignment: ShardAssignment,
        keys: Option<&[u64]>,
    ) -> Self {
        match assignment {
            ShardAssignment::RoundRobin => Self::round_robin(n, shards),
            ShardAssignment::ArchetypeMix => {
                let keys = keys.expect("ArchetypeMix assignment needs per-home keys");
                Self::by_keys(n, shards, keys)
            }
        }
    }

    /// Round-robin partition: home `i` → shard `i mod K`.
    pub fn round_robin(n: usize, shards: usize) -> Self {
        assert!(n > 0, "shard plan over no homes");
        let k = shards.clamp(1, n);
        let mut members = vec![Vec::with_capacity(n.div_ceil(k)); k];
        for home in 0..n {
            members[home % k].push(home);
        }
        Self::from_members(members)
    }

    /// Key-grouped partition: homes sorted by `(key, home)` and chunked
    /// into K contiguous, balanced groups (sizes differ by at most 1).
    pub fn by_keys(n: usize, shards: usize, keys: &[u64]) -> Self {
        assert!(n > 0, "shard plan over no homes");
        assert_eq!(keys.len(), n, "one key per home");
        let k = shards.clamp(1, n);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&h| (keys[h], h));
        let base = n / k;
        let rem = n % k;
        let mut members = Vec::with_capacity(k);
        let mut cursor = 0;
        for shard in 0..k {
            let len = base + usize::from(shard < rem);
            members.push(order[cursor..cursor + len].to_vec());
            cursor += len;
        }
        Self::from_members(members)
    }

    /// Builds a plan from an explicit partition, canonicalizing it:
    /// members are sorted ascending within each shard and shards are
    /// ordered by their smallest member. Any enumeration order of the
    /// same partition therefore yields an *equal* plan — which is what
    /// makes the two-level reduction invariant to shard iteration
    /// order.
    ///
    /// # Panics
    /// Panics unless `members` is a partition of `0..n` into non-empty
    /// sets (every home exactly once).
    pub fn from_members(mut members: Vec<Vec<usize>>) -> Self {
        members.retain(|m| !m.is_empty());
        assert!(!members.is_empty(), "shard plan over no homes");
        for m in members.iter_mut() {
            m.sort_unstable();
        }
        members.sort_by_key(|m| m[0]);
        let n: usize = members.iter().map(Vec::len).sum();
        let mut home_shard = vec![u32::MAX; n];
        for (shard, m) in members.iter().enumerate() {
            for &home in m {
                assert!(home < n, "home {home} out of range for fleet of {n}");
                assert_eq!(
                    home_shard[home],
                    u32::MAX,
                    "home {home} appears in two shards"
                );
                home_shard[home] = shard as u32;
            }
        }
        Self {
            home_shard,
            members,
        }
    }

    /// Fleet size.
    pub fn len(&self) -> usize {
        self.home_shard.len()
    }

    /// True when the plan covers no homes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.home_shard.is_empty()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.members.len()
    }

    /// Global home ids per shard (canonical order).
    pub fn members(&self) -> &[Vec<usize>] {
        &self.members
    }

    /// Shard index per home.
    pub fn home_shard(&self) -> &[u32] {
        &self.home_shard
    }

    /// The shard a home belongs to.
    pub fn shard_of(&self, home: usize) -> usize {
        self.home_shard[home] as usize
    }
}

/// Monotonic per-shard telemetry, snapshot-visible so a resumed run
/// reports identical totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardCounters {
    /// Federation rounds this shard aggregator has run.
    pub rounds: u64,
    /// Home-rounds merged via the global fast path.
    pub fast_path_homes: u64,
    /// Home-rounds merged via the shard-local per-home fallback.
    pub fallback_homes: u64,
    /// Largest payload-resident bytes any single round staged in this
    /// shard (one copy per sender).
    pub peak_payload_bytes: u64,
}

/// One shard's portion of an exported [`HierState`].
#[derive(Debug, Clone, PartialEq)]
pub struct HierShardState {
    /// Counter snapshot.
    pub counters: ShardCounters,
    /// The shard bus: stats and parked stragglers.
    pub bus: BusState,
}

/// Everything a [`HierarchicalRound`] needs to resume byte-exact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HierState {
    /// Shard index per home (validated against the rebuilt plan).
    pub home_shard: Vec<u32>,
    /// Synthetic aggregator-link traffic so far (wire bytes).
    pub agg_bytes: u64,
    /// Synthetic aggregator-link traffic so far (pre-compression
    /// bytes; equals `agg_bytes` under `PayloadCodec::Raw`).
    pub agg_logical_bytes: u64,
    /// Synthetic aggregator-link traffic so far (messages).
    pub agg_messages: u64,
    /// Fleet-wide high-water mark of per-shard payload bytes.
    pub peak_shard_bytes: u64,
    /// Per-shard counters and bus state, in shard order.
    pub shards: Vec<HierShardState>,
}

/// What one hierarchical round did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundOutcome {
    /// Homes merged via the O(N) shared sum.
    pub fast_path_homes: usize,
    /// Homes merged via the per-home fallback.
    pub fallback_homes: usize,
}

/// Number of updates summed per tree-reduce leaf. Fixed (never derived
/// from thread count) so the reduction shape — and therefore the exact
/// float rounding — is identical run to run on any machine.
const TREE_LEAF: usize = 16;

/// Fixed-midpoint tree sum of layers `0..layers` across `updates`: the
/// shape depends only on the update count.
fn tree_sum(updates: &[ModelUpdate], layers: usize) -> Vec<Vec<f64>> {
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

/// One neighborhood: its bus, its column engine, its counters, and
/// this round's fast-path bookkeeping.
struct Shard {
    bus: BroadcastBus,
    engine: DflRound,
    counters: ShardCounters,
    /// Shard-local participation mask (scratch).
    mask: Vec<bool>,
    /// Per-home fast-path eligibility for the current round.
    eligible: Vec<bool>,
    /// Per-home merge scratch for the fast path.
    scratch: Vec<Vec<f64>>,
}

impl Shard {
    /// Sums this round's payloads (layers `0..layers`) into the
    /// shard's partial S_k while they are still in cache, and marks
    /// each home eligible whose deliveries were exactly the other
    /// payloads in sender order. Returns `None`, marking nobody, when
    /// a payload is malformed: shaped unlike the others, or
    /// non-finite. Only called on a full round, so payload slot `j` is
    /// home `j`'s.
    fn sum_and_mark_eligible(&mut self, layers: usize) -> Option<Vec<Vec<f64>>> {
        let sent = self.engine.sent();
        // `tree_sum` zips, so a mis-shaped payload would silently
        // truncate the sum: shapes are checked first.
        let same_shape = |u: &ModelUpdate| {
            u.layers.len() == sent[0].layers.len()
                && u.layers
                    .iter()
                    .zip(&sent[0].layers)
                    .all(|(a, b)| a.params.len() == b.params.len())
        };
        if !sent.iter().all(same_shape) {
            return None;
        }
        let partial = tree_sum(sent, layers);
        // Under round-to-nearest a NaN or ±∞ term makes any sum
        // non-finite, so a finite S_k proves every payload finite. A
        // non-finite S_k may still be an overflow of finite payloads,
        // which stay valid: only then are the payloads scanned.
        let finite = |v: &[f64]| v.iter().all(|x| x.is_finite());
        if !partial.iter().all(|l| finite(l))
            && !sent
                .iter()
                .all(|u| u.layers.iter().all(|l| finite(&l.params)))
        {
            return None;
        }
        if self.engine.is_complete() {
            // Every home received every other payload; a one-home
            // shard correctly saw zero peers, so a singleton shard
            // still joins the global sum.
            self.eligible.fill(true);
        } else {
            let n = sent.len();
            for (ok, (home, inbox)) in self
                .eligible
                .iter_mut()
                .zip(self.engine.inboxes().iter().enumerate())
            {
                *ok = inbox.len() == n - 1
                    && inbox
                        .iter()
                        .zip((0..n).filter(|&j| j != home))
                        .all(|(m, j)| *m == Mail::Sent(j));
            }
        }
        Some(partial)
    }
}

/// The two-level round engine: one [`DflRound`] + [`BroadcastBus`] per
/// shard, plus the top-level combine. Reusable across rounds and model
/// columns (deliveries are keyed by model id).
pub struct HierarchicalRound {
    plan: ShardPlan,
    shards: Vec<Shard>,
    /// Synthetic aggregator-link traffic: each fast round ships S_k up
    /// and the combined S back down to every shard aggregator.
    agg_bytes: u64,
    agg_logical_bytes: u64,
    agg_messages: u64,
    peak_shard_bytes: u64,
    /// Uplink payload codec shared by every shard bus and the
    /// aggregator links.
    codec: PayloadCodec,
}

impl HierarchicalRound {
    /// Builds the engine for a plan: one bus per shard, sized to the
    /// shard population, all sharing the fleet's fault plan (fault
    /// decisions key on bus-local indices, so a single shard covering
    /// all homes reproduces a fleet bus decision-for-decision).
    pub fn new(plan: ShardPlan, latency: LatencyModel, faults: &FaultConfig) -> Self {
        Self::with_codec(plan, latency, faults, PayloadCodec::Raw)
    }

    /// [`new`](Self::new) plus an uplink [`PayloadCodec`] shared by
    /// every shard bus and the synthetic aggregator links, so shard
    /// uplink accounting (`comm_bytes`, `peak_shard_bytes`) reflects
    /// real wire cost.
    pub fn with_codec(
        plan: ShardPlan,
        latency: LatencyModel,
        faults: &FaultConfig,
        codec: PayloadCodec,
    ) -> Self {
        let shards = plan
            .members()
            .iter()
            .map(|m| Shard {
                bus: BroadcastBus::with_codec(m.len(), latency, faults, codec),
                engine: DflRound::new(),
                counters: ShardCounters::default(),
                mask: Vec::new(),
                eligible: Vec::new(),
                scratch: Vec::new(),
            })
            .collect();
        Self {
            plan,
            shards,
            agg_bytes: 0,
            agg_logical_bytes: 0,
            agg_messages: 0,
            peak_shard_bytes: 0,
            codec,
        }
    }

    /// The shard plan this engine executes.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Fleet-wide high-water mark of per-shard payload-resident bytes
    /// in any single round.
    pub fn peak_shard_bytes(&self) -> u64 {
        self.peak_shard_bytes
    }

    /// Traffic totals across every shard bus plus the synthetic
    /// aggregator links.
    pub fn total_stats(&self) -> BusStats {
        let mut t = BusStats::default();
        for shard in &self.shards {
            t.add(&shard.bus.stats());
        }
        t.messages += self.agg_messages;
        t.bytes += self.agg_bytes;
        t.logical_bytes += self.agg_logical_bytes;
        t
    }

    /// Simulated wall-clock of the slowest neighborhood: shards
    /// exchange concurrently, so the fleet round is gated by the
    /// slowest shard bus, not their sum.
    pub fn simulated_seconds(&self) -> f64 {
        self.shards
            .iter()
            .map(|s| s.bus.simulated_seconds())
            .fold(0.0, f64::max)
    }

    /// Runs one hierarchical round over the full fleet column.
    ///
    /// # Panics
    /// Panics if `models` does not match the plan's fleet size or the
    /// participation mask is mis-sized.
    pub fn run<M: Layered + Send + Sync + ?Sized>(
        &mut self,
        models: &mut [&mut M],
        p: &RoundParams<'_>,
    ) -> RoundOutcome {
        let n = models.len();
        assert!(n > 0, "hierarchical round over no models");
        assert_eq!(n, self.plan.len(), "model column does not match shard plan");
        if let Some(mask) = p.participants {
            assert_eq!(mask.len(), n, "participation mask does not match fleet");
        }
        // S must hold every home's payload.
        let full_round = p.participants.is_none_or(|m| m.iter().all(|&b| b));
        let probe = n >= 2 && full_round;

        let Self {
            plan,
            shards,
            agg_bytes,
            agg_logical_bytes,
            agg_messages,
            peak_shard_bytes,
            codec,
        } = self;
        let codec = *codec;

        // Split the global column into disjoint per-shard columns in
        // canonical member order.
        let mut slots: Vec<Option<&mut M>> = models.iter_mut().map(|m| Some(&mut **m)).collect();
        let mut cols: Vec<Vec<&mut M>> = plan
            .members()
            .iter()
            .map(|m| {
                m.iter()
                    .map(|&h| slots[h].take().expect("home in two shards"))
                    .collect()
            })
            .collect();

        // Shard-local participation masks.
        if let Some(mask) = p.participants {
            for (shard, m) in shards.iter_mut().zip(plan.members()) {
                shard.mask.clear();
                shard.mask.extend(m.iter().map(|&h| mask[h]));
            }
        }

        // Phase 1, shards in parallel: export → deliver → partial sum
        // S_k and eligibility. A shard touches only its own engine, bus
        // and column, and the outcomes fold below in shard order.
        let mut exchanges: Vec<_> = shards
            .par_iter_mut()
            .zip(cols.par_iter_mut())
            .map(|(shard, col)| {
                let shard_params = RoundParams {
                    participants: p.participants.map(|_| &shard.mask[..]),
                    ..*p
                };
                let ex = shard.engine.exchange(col, &mut shard.bus, &shard_params);
                shard.eligible.clear();
                shard.eligible.resize(col.len(), false);
                let partial = if probe {
                    shard.sum_and_mark_eligible(ex.layer_end)
                } else {
                    None
                };
                (ex, partial)
            })
            .collect();
        let mut round_peak = 0u64;
        for (shard, (ex, _)) in shards.iter_mut().zip(&exchanges) {
            round_peak = round_peak.max(ex.payload_bytes);
            shard.counters.peak_payload_bytes =
                shard.counters.peak_payload_bytes.max(ex.payload_bytes);
        }
        *peak_shard_bytes = (*peak_shard_bytes).max(round_peak);

        // S includes every shard's broadcast payloads, so one invalid
        // payload anywhere demotes the whole fleet to the fallback.
        if !exchanges.iter().all(|(_, partial)| partial.is_some()) {
            for shard in shards.iter_mut() {
                shard.eligible.fill(false);
            }
        }
        let fast_total: usize = shards
            .iter()
            .map(|s| s.eligible.iter().filter(|&&e| e).count())
            .sum();

        // Top level: the fixed-midpoint tree over the phase-1 partial
        // sums, in shard order. With one shard this is a move of S_0 —
        // no re-association — so the flat topology sums as one tree
        // over the fleet.
        let mut global: Vec<Vec<f64>> = Vec::new();
        if fast_total > 0 {
            let mut partials: Vec<Vec<Vec<f64>>> = exchanges
                .iter_mut()
                .map(|(_, partial)| partial.take().expect("every shard probed"))
                .collect();
            global = combine_partials(&mut partials);
            // Each aggregator ships S_k up and the root ships S back
            // down. With one shard the aggregator is the root, so the
            // flat round carries no synthetic traffic.
            let k = shards.len() as u64;
            if k > 1 {
                let sum_wire: u64 = global
                    .iter()
                    .map(|l| codec.payload_layer_bytes(l.len()) as u64)
                    .sum();
                let sum_logical: u64 = global.iter().map(|l| (l.len() * 8) as u64).sum();
                *agg_bytes += 2 * k * sum_wire;
                *agg_logical_bytes += 2 * k * sum_logical;
                *agg_messages += 2 * k;
            }
        }

        // Phase 2, shards in parallel, homes in parallel on a column of
        // at least `2 × MERGE_MIN_HOMES`: eligible homes merge with the
        // fleet-global sum and fleet size; every other home merges its
        // neighborhood's deliveries.
        let count = n as f64;
        let global = &global;
        shards
            .par_iter_mut()
            .zip(cols.par_iter_mut())
            .for_each(|(shard, col)| {
                let Shard {
                    engine,
                    eligible,
                    scratch,
                    ..
                } = shard;
                scratch.resize_with(col.len(), Vec::new);
                let round = &*engine;
                let sent = round.sent();
                col.par_iter_mut()
                    .zip(scratch.par_iter_mut())
                    .enumerate()
                    .with_min_len(MERGE_MIN_HOMES)
                    .for_each(|(home, (model, scratch))| {
                        let model: &mut M = model;
                        if !eligible[home] {
                            merge_received(model, round.deliveries(home), p);
                            return;
                        }
                        let own = &sent[home];
                        for (l, s) in global.iter().enumerate() {
                            model.export_layer_into(l, scratch);
                            let u = &own.layers[l].params;
                            for ((a, sv), uv) in scratch.iter_mut().zip(s.iter()).zip(u.iter()) {
                                *a = (*a + (*sv - *uv)) / count;
                            }
                            model.import_layer(l, scratch);
                        }
                    });
            });

        let mut outcome = RoundOutcome::default();
        for shard in shards.iter_mut() {
            let fast = shard.eligible.iter().filter(|&&e| e).count();
            let fallback = shard.eligible.len() - fast;
            let c = &mut shard.counters;
            c.rounds += 1;
            c.fast_path_homes += fast as u64;
            c.fallback_homes += fallback as u64;
            outcome.fast_path_homes += fast;
            outcome.fallback_homes += fallback;
        }
        outcome
    }

    /// Exports everything needed to resume byte-exact: assignment,
    /// aggregator-link totals, per-shard counters and bus states
    /// (including parked straggler queues).
    pub fn export_state(&self) -> HierState {
        HierState {
            home_shard: self.plan.home_shard().to_vec(),
            agg_bytes: self.agg_bytes,
            agg_logical_bytes: self.agg_logical_bytes,
            agg_messages: self.agg_messages,
            peak_shard_bytes: self.peak_shard_bytes,
            shards: self
                .shards
                .iter()
                .map(|s| HierShardState {
                    counters: s.counters,
                    bus: s.bus.export_state(),
                })
                .collect(),
        }
    }

    /// Restores an exported state into a freshly built engine. The
    /// saved assignment must match this engine's plan (both derive
    /// deterministically from the config, so a mismatch means the
    /// snapshot belongs to a different config).
    pub fn restore_state(&mut self, state: &HierState) -> Result<(), String> {
        if state.home_shard != self.plan.home_shard() {
            return Err("snapshot shard assignment does not match the config's plan".into());
        }
        if state.shards.len() != self.plan.shard_count() {
            return Err(format!(
                "snapshot has {} shards, plan has {}",
                state.shards.len(),
                self.plan.shard_count()
            ));
        }
        for (k, (shard, s)) in self.shards.iter_mut().zip(&state.shards).enumerate() {
            shard
                .bus
                .restore_state(&s.bus)
                .map_err(|e| format!("shard {k}: {e}"))?;
            shard.counters = s.counters;
        }
        self.agg_bytes = state.agg_bytes;
        self.agg_logical_bytes = state.agg_logical_bytes;
        self.agg_messages = state.agg_messages;
        self.peak_shard_bytes = state.peak_shard_bytes;
        Ok(())
    }
}

/// Fixed-midpoint tree combine of per-shard partial sums, in shard
/// order. Consumes the partials (a one-shard fleet moves S_0 out
/// untouched).
fn combine_partials(parts: &mut [Vec<Vec<f64>>]) -> Vec<Vec<f64>> {
    if parts.len() == 1 {
        return std::mem::take(&mut parts[0]);
    }
    let mid = parts.len() / 2;
    let (l, r) = parts.split_at_mut(mid);
    let mut left = combine_partials(l);
    let right = combine_partials(r);
    for (a, b) in left.iter_mut().zip(right.iter()) {
        for (x, y) in a.iter_mut().zip(b.iter()) {
            *x += y;
        }
    }
    left
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn params(round: u64, alpha: Option<usize>, participants: Option<&[bool]>) -> RoundParams<'_> {
        RoundParams {
            round,
            model_id: 0,
            alpha,
            participants,
        }
    }

    fn run_hier(
        models: &mut [Mlp],
        engine: &mut HierarchicalRound,
        rounds: u64,
        alpha: Option<usize>,
    ) -> RoundOutcome {
        let mut last = RoundOutcome::default();
        for round in 0..rounds {
            let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
            last = engine.run(&mut col, &params(round, alpha, None));
        }
        last
    }

    /// The fast path's reference: the per-home engine on one fleet bus.
    fn run_per_home(models: &mut [Mlp], bus: &mut BroadcastBus, rounds: u64, alpha: Option<usize>) {
        let mut engine = DflRound::new();
        for round in 0..rounds {
            let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
            engine.run(&mut col, bus, &params(round, alpha, None));
        }
    }

    fn assert_close(a: &[Mlp], b: &[Mlp], what: &str) {
        for (ma, mb) in a.iter().zip(b) {
            for (la, lb) in ma.export_all().iter().zip(mb.export_all().iter()) {
                for (x, y) in la.iter().zip(lb) {
                    assert!(
                        (x - y).abs() <= 1e-12 * x.abs().max(1.0),
                        "{what}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn plans_are_canonical_partitions() {
        let plan = ShardPlan::round_robin(10, 3);
        assert_eq!(plan.shard_count(), 3);
        assert_eq!(plan.len(), 10);
        assert_eq!(plan.members()[0], vec![0, 3, 6, 9]);
        for (home, &s) in plan.home_shard().iter().enumerate() {
            assert!(plan.members()[s as usize].contains(&home));
        }

        // Same partition enumerated in a different shard order is the
        // same plan.
        let a = ShardPlan::from_members(vec![vec![4, 0], vec![1, 3], vec![2]]);
        let b = ShardPlan::from_members(vec![vec![2], vec![3, 1], vec![0, 4]]);
        assert_eq!(a, b);
        assert_eq!(a.members()[0], vec![0, 4]);
    }

    #[test]
    fn by_keys_groups_similar_keys_and_balances() {
        let keys = [3u64, 1, 3, 1, 2, 2, 3, 1];
        let plan = ShardPlan::by_keys(8, 3, &keys);
        assert_eq!(plan.shard_count(), 3);
        let sizes: Vec<usize> = plan.members().iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 8);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3));
        // Homes with key 1 (1, 3, 7) land together.
        let s = plan.shard_of(1);
        assert_eq!(plan.shard_of(3), s);
        assert_eq!(plan.shard_of(7), s);
    }

    #[test]
    fn oversized_shard_count_clamps_to_fleet() {
        let plan = ShardPlan::round_robin(3, 16);
        assert_eq!(plan.shard_count(), 3);
        assert!(plan.members().iter().all(|m| m.len() == 1));
    }

    #[test]
    fn fast_path_matches_per_home_within_tolerance_and_is_deterministic() {
        // One shard (the flat topology) and uneven shards down to a
        // singleton: every fault-free round is all fast path, lands
        // within float-reassociation tolerance of the per-home engine,
        // and replays bit for bit.
        let cases = [
            (ShardPlan::round_robin(12, 1), Some(2), 2),
            (ShardPlan::round_robin(20, 1), None, 3),
            (
                ShardPlan::from_members(vec![vec![0, 1, 2, 3], vec![4, 5], vec![6]]),
                None,
                1,
            ),
        ];
        for (plan, alpha, rounds) in cases {
            let n = plan.len();
            let run = || {
                let mut models = fleet(n, 31);
                let mut engine = HierarchicalRound::new(
                    plan.clone(),
                    LatencyModel::lan(),
                    &FaultConfig::default(),
                );
                let out = run_hier(&mut models, &mut engine, rounds, alpha);
                assert_eq!(out.fast_path_homes, n, "fault-free round must be fast");
                (models, engine)
            };
            let (fast, engine) = run();
            let (again, _) = run();
            assert_eq!(bits(&fast), bits(&again), "n={n}");

            let mut slow = fleet(n, 31);
            let mut bus = BroadcastBus::new(n, LatencyModel::lan());
            run_per_home(&mut slow, &mut bus, rounds, alpha);
            assert_close(&fast, &slow, &format!("n={n}"));
            if engine.plan().shard_count() == 1 {
                assert_eq!(engine.total_stats(), bus.stats(), "n={n}");
            }
        }
    }

    #[test]
    fn single_shard_falls_back_to_per_home_under_faults() {
        // Loss + corruption + stragglers: received sets differ from the
        // clean round, so every affected home must produce exactly the
        // per-home result, over exactly the per-home engine's traffic.
        let cfg = FaultConfig {
            seed: 99,
            loss_rate: 0.3,
            corrupt_rate: 0.2,
            straggler_rate: 0.2,
            ..FaultConfig::default()
        };
        let mut fast = fleet(6, 21);
        let mut slow = fleet(6, 21);
        let mut engine =
            HierarchicalRound::new(ShardPlan::round_robin(6, 1), LatencyModel::lan(), &cfg);
        let mut bus = BroadcastBus::with_faults(6, LatencyModel::lan(), &cfg);
        let out = run_hier(&mut fast, &mut engine, 4, None);
        run_per_home(&mut slow, &mut bus, 4, None);
        assert!(
            out.fallback_homes > 0,
            "under 30% loss some home must fall back"
        );
        assert_eq!(bits(&fast), bits(&slow));
        assert_eq!(engine.total_stats(), bus.stats());
    }

    #[test]
    fn single_home_fleet_has_no_fast_path() {
        let mut models = fleet(1, 9);
        let before = bits(&models);
        let mut engine = HierarchicalRound::new(
            ShardPlan::round_robin(1, 1),
            LatencyModel::lan(),
            &FaultConfig::default(),
        );
        let out = run_hier(&mut models, &mut engine, 1, None);
        assert_eq!((out.fast_path_homes, out.fallback_homes), (0, 1));
        assert_eq!(bits(&models), before);
    }

    #[test]
    fn multi_shard_round_is_deterministic_and_population_weighted() {
        let run = |plan: ShardPlan| {
            let mut models = fleet(9, 5);
            let mut engine =
                HierarchicalRound::new(plan, LatencyModel::lan(), &FaultConfig::default());
            let out = run_hier(&mut models, &mut engine, 2, Some(2));
            assert_eq!(out.fast_path_homes, 9, "fault-free fleet must be fast");
            bits(&models)
        };
        // Byte-deterministic across runs.
        assert_eq!(
            run(ShardPlan::round_robin(9, 3)),
            run(ShardPlan::round_robin(9, 3))
        );
        // Invariant to how the same partition was enumerated.
        let members: Vec<Vec<usize>> = ShardPlan::round_robin(9, 3).members().to_vec();
        let mut reversed = members.clone();
        reversed.reverse();
        assert_eq!(
            run(ShardPlan::from_members(members)),
            run(ShardPlan::from_members(reversed))
        );
    }

    #[test]
    fn state_roundtrip_restores_counters_and_traffic() {
        let cfg = FaultConfig {
            seed: 4,
            straggler_rate: 0.5,
            ..FaultConfig::default()
        };
        let mut models = fleet(8, 11);
        let plan = ShardPlan::round_robin(8, 2);
        let mut engine = HierarchicalRound::new(plan.clone(), LatencyModel::lan(), &cfg);
        run_hier(&mut models, &mut engine, 3, None);
        let state = engine.export_state();
        assert!(state.shards.iter().any(|s| s.counters.rounds == 3));

        let mut restored = HierarchicalRound::new(plan, LatencyModel::lan(), &cfg);
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.export_state(), state);
        assert_eq!(restored.total_stats(), engine.total_stats());
        assert_eq!(restored.peak_shard_bytes(), engine.peak_shard_bytes());

        // A mismatched plan is rejected.
        let mut other =
            HierarchicalRound::new(ShardPlan::round_robin(8, 4), LatencyModel::lan(), &cfg);
        assert!(other.restore_state(&state).is_err());
    }

    #[test]
    fn aggregator_links_charge_two_payloads_per_shard_per_fast_round() {
        // One fault-free round: the shard buses carry whole updates, and
        // with K > 1 every shard aggregator ships S_k up and receives S
        // back (layer payloads, no headers). With one shard the
        // aggregator is the root, so nothing is added.
        use crate::codec::{LayerUpdate, ModelUpdate};
        let n = 8;
        let lens: Vec<usize> = fleet(1, 0)[0].export_all().iter().map(Vec::len).collect();
        let update = ModelUpdate {
            layers: lens
                .iter()
                .enumerate()
                .map(|(index, &len)| LayerUpdate {
                    index,
                    params: vec![0.0; len],
                })
                .collect(),
            ..ModelUpdate::default()
        };
        for codec in [
            PayloadCodec::Raw,
            PayloadCodec::QuantizedI8 {
                per_layer_scale: true,
            },
        ] {
            for shards in [1, 4] {
                let plan = ShardPlan::round_robin(n, shards);
                let peers: usize = plan.members().iter().map(|m| m.len() * (m.len() - 1)).sum();
                let mut models = fleet(n, 3);
                let mut engine = HierarchicalRound::with_codec(
                    plan,
                    LatencyModel::lan(),
                    &FaultConfig::default(),
                    codec,
                );
                let out = run_hier(&mut models, &mut engine, 1, None);
                assert_eq!(out.fast_path_homes, n, "{codec:?} K={shards}");

                let bus_messages: u64 = engine.shards.iter().map(|s| s.bus.stats().messages).sum();
                assert_eq!(bus_messages, peers as u64, "{codec:?} K={shards}");
                let links = if shards > 1 { 2 * shards as u64 } else { 0 };
                // Raw's sizes are the logical (8 B per parameter) ones.
                let expected = |c: PayloadCodec| {
                    bus_messages * c.wire_update_bytes(&update) as u64
                        + links
                            * lens
                                .iter()
                                .map(|&len| c.payload_layer_bytes(len) as u64)
                                .sum::<u64>()
                };
                let stats = engine.total_stats();
                assert_eq!(stats.messages, bus_messages + links, "{codec:?} K={shards}");
                assert_eq!(stats.bytes, expected(codec), "{codec:?} K={shards}");
                assert_eq!(
                    stats.logical_bytes,
                    expected(PayloadCodec::Raw),
                    "{codec:?} K={shards}"
                );
            }
        }
    }

    #[test]
    fn withheld_home_disables_the_global_fast_path() {
        let n = 6;
        let mut mask = vec![true; n];
        mask[2] = false;
        for shards in [1, 2] {
            let mut models = fleet(n, 13);
            let mut engine = HierarchicalRound::new(
                ShardPlan::round_robin(n, shards),
                LatencyModel::lan(),
                &FaultConfig::default(),
            );
            let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
            let out = engine.run(&mut col, &params(0, None, Some(&mask)));
            assert_eq!(out.fast_path_homes, 0, "K={shards}");
            assert_eq!(out.fallback_homes, n, "K={shards}");
            if shards == 1 {
                // One neighborhood is the whole fleet: the fallback is
                // exactly the per-home engine's masked round.
                let mut slow = fleet(n, 13);
                let mut bus = BroadcastBus::new(n, LatencyModel::lan());
                let mut col: Vec<&mut Mlp> = slow.iter_mut().collect();
                DflRound::new().run(&mut col, &mut bus, &params(0, None, Some(&mask)));
                assert_eq!(bits(&models), bits(&slow));
            }
        }
    }

    #[test]
    fn complete_rounds_match_per_pair_rounds_bit_for_bit() {
        // Run 1 federates over shard buses without a fault plan, so
        // every round is complete. Run 2 gives every shard bus a plan
        // whose one nonzero rate is f64::MIN_POSITIVE: it never fires at
        // this size, but it makes every shard deliver pair by pair, and
        // the inbox walk must mark exactly the homes the complete round
        // marks.
        let n = 9;
        let plan = ShardPlan::round_robin(n, 3);
        let idle = FaultConfig {
            loss_rate: f64::MIN_POSITIVE,
            ..FaultConfig::default()
        };
        let mut mask = vec![true; n];
        mask[4] = false;
        let codecs = [
            PayloadCodec::Raw,
            PayloadCodec::QuantizedI8 {
                per_layer_scale: true,
            },
        ];
        for codec in codecs {
            for alpha in [None, Some(2)] {
                for participants in [None, Some(&mask[..])] {
                    let run = |faults: &FaultConfig| {
                        let mut models = fleet(n, 23);
                        let mut engine = HierarchicalRound::with_codec(
                            plan.clone(),
                            LatencyModel::lan(),
                            faults,
                            codec,
                        );
                        let mut outcomes = Vec::new();
                        for round in 0..2 {
                            let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
                            outcomes
                                .push(engine.run(&mut col, &params(round, alpha, participants)));
                            for shard in &engine.shards {
                                assert_eq!(shard.engine.is_complete(), !faults.is_active());
                            }
                        }
                        (
                            bits(&models),
                            outcomes,
                            engine.export_state(),
                            engine.total_stats(),
                        )
                    };
                    let what = format!("{codec:?} alpha {alpha:?} mask {}", participants.is_some());
                    let (complete, per_pair) = (run(&FaultConfig::default()), run(&idle));
                    let s = per_pair.3;
                    assert_eq!((s.dropped_total(), s.delayed, s.corrupted), (0, 0, 0));
                    assert_eq!(complete.0, per_pair.0, "{what}: model bits");
                    assert_eq!(complete.1, per_pair.1, "{what}: outcomes");
                    assert_eq!(complete.2, per_pair.2, "{what}: engine state");
                    assert_eq!(complete.3, per_pair.3, "{what}: traffic");
                }
            }
        }
    }

    #[test]
    fn one_non_finite_payload_demotes_every_shard() {
        // Home 4's payload carries a NaN or +∞ (Raw keeps it): S would
        // be poisoned, so every home of every shard falls back to the
        // per-home merge of its own shard, exactly as a per-home round
        // on that shard's bus merges.
        let n = 9;
        let plan = ShardPlan::round_robin(n, 3);
        for bad in [f64::NAN, f64::INFINITY] {
            let poisoned = || {
                let mut models = fleet(n, 41);
                let mut layer = models[4].export_layer(0);
                layer[3] = bad;
                models[4].import_layer(0, &layer);
                models
            };
            let mut models = poisoned();
            let mut engine =
                HierarchicalRound::new(plan.clone(), LatencyModel::lan(), &FaultConfig::default());
            let out = run_hier(&mut models, &mut engine, 1, None);
            assert_eq!((out.fast_path_homes, out.fallback_homes), (0, n), "{bad}");

            let mut oracle = poisoned();
            let mut slots: Vec<Option<&mut Mlp>> = oracle.iter_mut().map(Some).collect();
            for members in plan.members() {
                let mut col: Vec<&mut Mlp> =
                    members.iter().map(|&h| slots[h].take().unwrap()).collect();
                let mut bus = BroadcastBus::new(col.len(), LatencyModel::lan());
                DflRound::new().run(&mut col, &mut bus, &params(0, None, None));
            }
            assert_eq!(bits(&models), bits(&oracle), "{bad}");
        }
    }

    #[test]
    fn finite_payloads_whose_sum_overflows_stay_eligible() {
        // Homes 0 and 2 share shard 0 and both carry ±f64::MAX, so S_0
        // overflows to ±∞ although every payload is finite. The payloads
        // stay valid and every home takes the fast path (merging the
        // infinite S), under Raw and under int8 quantization alike.
        let n = 6;
        let codecs = [
            PayloadCodec::Raw,
            PayloadCodec::QuantizedI8 {
                per_layer_scale: true,
            },
        ];
        for codec in codecs {
            for big in [f64::MAX, -f64::MAX] {
                let mut models = fleet(n, 43);
                for home in [0, 2] {
                    let mut layer = models[home].export_layer(0);
                    layer[0] = big;
                    models[home].import_layer(0, &layer);
                }
                let mut engine = HierarchicalRound::with_codec(
                    ShardPlan::round_robin(n, 2),
                    LatencyModel::lan(),
                    &FaultConfig::default(),
                    codec,
                );
                let out = run_hier(&mut models, &mut engine, 1, None);
                assert_eq!(out.fast_path_homes, n, "{codec:?} {big}");
                for m in &models {
                    let x = m.export_layer(0)[0];
                    assert!(x.is_infinite() && x.signum() == big.signum(), "{x}");
                }
            }
        }
    }

    #[test]
    fn one_home_shard_joins_the_global_sum() {
        // Home 3 is alone in its shard: its round correctly delivered
        // no peer, so it merges with S, and S carries its payload to
        // every other home.
        let plan = ShardPlan::from_members(vec![vec![0, 1, 2], vec![3]]);
        let mut fast = fleet(4, 47);
        let mut engine = HierarchicalRound::new(plan, LatencyModel::lan(), &FaultConfig::default());
        let out = run_hier(&mut fast, &mut engine, 1, None);
        assert_eq!(out.fast_path_homes, 4);
        assert_eq!(engine.shards[1].counters.fast_path_homes, 1);

        let mut slow = fleet(4, 47);
        let mut bus = BroadcastBus::new(4, LatencyModel::lan());
        run_per_home(&mut slow, &mut bus, 1, None);
        assert_close(&fast, &slow, "singleton shard");
    }
}
