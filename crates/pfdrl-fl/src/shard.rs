//! Hierarchical (two-level) federation: neighborhood shards that run
//! the SharedSum O(N) reduction locally, and a fixed-shape top-level
//! tree that combines the per-shard partial sums into the fleet-global
//! S. The flat path is the oracle: a [`ShardPlan`] with one shard
//! covering all homes reproduces flat [`AggregationMode::SharedSum`]
//! bit for bit (same bus size, same member order, same fault plan,
//! same reduction shape).
//!
//! Determinism rules for the two-level reduction tree:
//!
//! 1. Shard membership is canonical: members ascend within a shard and
//!    shards are ordered by their smallest member, regardless of how
//!    the partition was produced. Two plans describing the same
//!    partition are therefore *equal*, and every downstream float sum
//!    sees the same operand order.
//! 2. Within a shard, broadcast order is member order and the partial
//!    sum S_k uses the same fixed-midpoint tree (leaf = 16) as the
//!    flat path.
//! 3. The top level combines `[S_0 … S_{K−1}]` in shard-index order
//!    with a fixed-midpoint binary tree — never a worker-count-derived
//!    shape — so results are byte-identical run to run on any machine.
//!
//! S is a plain sum of sums, so shards are weighted by their population
//! by construction (S_k = n_k · mean_k). An eligible home merges
//! `(local + (S − u_i)) / N` with the fleet-global N; a home whose
//! shard round was disturbed falls back to the exact per-home merge of
//! what its neighborhood delivered.

use crate::aggregate::{AggregationMode, MergePolicy};
use crate::bus::{BroadcastBus, BusState, BusStats, LatencyModel};
use crate::codec::PayloadCodec;
use crate::fault::FaultConfig;
use crate::round::{tree_sum, DflRound, RoundOutcome, RoundParams};
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

    /// Largest shard population (drives the per-shard memory budget).
    pub fn max_shard_len(&self) -> usize {
        self.members.iter().map(Vec::len).max().unwrap_or(0)
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
    /// shard (one Arc-shared copy per sender).
    pub peak_payload_bytes: u64,
}

/// One shard's portion of an exported [`HierState`].
#[derive(Debug, Clone, PartialEq)]
pub struct HierShardState {
    /// Counter snapshot.
    pub counters: ShardCounters,
    /// The shard bus: stats, undrained mailboxes, parked stragglers.
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

/// Inputs of one hierarchical federation round (the bus lives inside
/// the engine — one per shard — unlike [`RoundParams`]).
pub struct HierParams<'a> {
    /// Federation round clock (staleness reference).
    pub round: u64,
    /// Model id stamped on broadcasts and used to key the drains.
    pub model_id: u64,
    /// `Some(alpha)`: exchange only the first `alpha` base layers.
    pub alpha: Option<usize>,
    /// Merge policy (quorum, staleness decay/bound).
    pub policy: &'a MergePolicy,
    /// Per-home upload participation mask (`None` = everyone). Any
    /// withheld home disables the global fast path for the round, as
    /// on the flat path.
    pub participants: Option<&'a [bool]>,
}

/// The two-level round engine: one [`DflRound`] + [`BroadcastBus`] per
/// shard, plus the top-level combine. Reusable
/// across rounds and model columns (drains are keyed by model id).
pub struct HierarchicalRound {
    plan: ShardPlan,
    buses: Vec<BroadcastBus>,
    engines: Vec<DflRound>,
    counters: Vec<ShardCounters>,
    /// Synthetic aggregator-link traffic: each fast round ships S_k up
    /// and the combined S back down to every shard aggregator.
    agg_bytes: u64,
    agg_logical_bytes: u64,
    agg_messages: u64,
    peak_shard_bytes: u64,
    /// Per-shard participation-mask scratch.
    masks: Vec<Vec<bool>>,
    /// Uplink payload codec shared by every shard bus and the
    /// aggregator links.
    codec: PayloadCodec,
}

impl HierarchicalRound {
    /// Builds the engine for a plan: one bus per shard, sized to the
    /// shard population, all sharing the fleet's fault plan (fault
    /// decisions key on bus-local indices, so a single shard covering
    /// all homes reproduces the flat bus decision-for-decision).
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
        let buses: Vec<BroadcastBus> = plan
            .members()
            .iter()
            .map(|m| BroadcastBus::with_codec(m.len(), latency, faults, codec))
            .collect();
        let engines = plan.members().iter().map(|_| DflRound::new()).collect();
        let counters = vec![ShardCounters::default(); plan.shard_count()];
        let masks = vec![Vec::new(); plan.shard_count()];
        Self {
            plan,
            buses,
            engines,
            counters,
            agg_bytes: 0,
            agg_logical_bytes: 0,
            agg_messages: 0,
            peak_shard_bytes: 0,
            masks,
            codec,
        }
    }

    /// The shard plan this engine executes.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Per-shard counters, in shard order.
    pub fn counters(&self) -> &[ShardCounters] {
        &self.counters
    }

    /// Fleet-wide high-water mark of per-shard payload-resident bytes
    /// in any single round — the figure `max_shard_bytes` budgets.
    pub fn peak_shard_bytes(&self) -> u64 {
        self.peak_shard_bytes
    }

    /// Traffic totals across every shard bus plus the synthetic
    /// aggregator links.
    pub fn total_stats(&self) -> BusStats {
        let mut t = BusStats::default();
        for bus in &self.buses {
            let s = bus.stats();
            t.messages += s.messages;
            t.bytes += s.bytes;
            t.logical_bytes += s.logical_bytes;
            t.dropped_offline += s.dropped_offline;
            t.dropped_loss += s.dropped_loss;
            t.dropped_disconnected += s.dropped_disconnected;
            t.corrupted += s.corrupted;
            t.delayed += s.delayed;
            t.delay_seconds += s.delay_seconds;
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
        self.buses
            .iter()
            .map(BroadcastBus::simulated_seconds)
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
        p: &HierParams<'_>,
    ) -> RoundOutcome {
        let n = models.len();
        assert!(n > 0, "hierarchical round over no models");
        assert_eq!(n, self.plan.len(), "model column does not match shard plan");
        if let Some(mask) = p.participants {
            assert_eq!(mask.len(), n, "participation mask does not match fleet");
        }
        let full_round = p.participants.is_none_or(|m| m.iter().all(|&b| b));
        let quorum = p.policy.min_quorum.max(1);
        // Global fast-path preconditions mirror the flat path: the
        // quorum an eligible home effectively meets is the N−1
        // fleet-wide contributions inside S.
        let probe = n >= 2 && full_round && quorum < n;

        let Self {
            plan,
            buses,
            engines,
            counters,
            agg_bytes,
            agg_logical_bytes,
            agg_messages,
            peak_shard_bytes,
            masks,
            codec,
        } = self;
        let shards = plan.shard_count();

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
            for (k, m) in plan.members().iter().enumerate() {
                masks[k].clear();
                masks[k].extend(m.iter().map(|&h| mask[h]));
            }
        }

        // One shard's round inputs; its bus and mask are its own.
        let (buses, masks) = (&*buses, &*masks);
        let params = |k: usize| RoundParams {
            bus: &buses[k],
            round: p.round,
            model_id: p.model_id,
            alpha: p.alpha,
            policy: p.policy,
            mode: AggregationMode::SharedSum,
            participants: p.participants.is_some().then(|| &masks[k][..]),
        };

        // Phase 1, shards in parallel: export → broadcast → drain →
        // eligibility. A shard touches only its own engine, bus and
        // column, and the outcomes fold below in shard order.
        let exchanges: Vec<_> = engines
            .par_iter_mut()
            .zip(cols.par_iter_mut())
            .enumerate()
            .map(|(k, (engine, col))| engine.exchange(col, &params(k), probe))
            .collect();
        let layer_end = exchanges[0].layer_end;
        let mut all_ok = probe;
        let mut round_peak = 0u64;
        for (c, ex) in counters.iter_mut().zip(&exchanges) {
            all_ok &= ex.payloads_ok;
            round_peak = round_peak.max(ex.payload_bytes);
            c.peak_payload_bytes = c.peak_payload_bytes.max(ex.payload_bytes);
        }
        *peak_shard_bytes = (*peak_shard_bytes).max(round_peak);

        // S includes every shard's broadcast payloads, so one invalid
        // payload anywhere demotes the whole fleet to the fallback —
        // exactly the flat device_ok rule.
        if !all_ok {
            for engine in engines.iter_mut() {
                engine.clear_eligibility();
            }
        }
        let fast_total: usize = engines.iter().map(DflRound::eligible_count).sum();

        // Top level: per-shard partial sums (shards in parallel, each
        // with the data-sized leaf tree), then the fixed-midpoint tree
        // over shard order. With one shard this is a move of S_0 — no
        // re-association — which is what keeps the single-shard oracle
        // bitwise.
        let mut global: Vec<Vec<f64>> = Vec::new();
        if fast_total > 0 {
            let mut partials: Vec<Vec<Vec<f64>>> = engines
                .par_iter()
                .map(|engine| tree_sum(engine.sent_payloads(), layer_end))
                .collect();
            global = combine_partials(&mut partials);
            // Each aggregator ships S_k up and the root ships S back
            // down. With one shard the aggregator is the root, so the
            // flat-oracle round carries no synthetic traffic.
            if shards > 1 {
                let sum_wire: u64 = global
                    .iter()
                    .map(|l| codec.payload_layer_bytes(l.len()) as u64)
                    .sum();
                let sum_logical: u64 = global.iter().map(|l| (l.len() * 8) as u64).sum();
                *agg_bytes += 2 * shards as u64 * sum_wire;
                *agg_logical_bytes += 2 * shards as u64 * sum_logical;
                *agg_messages += 2 * shards as u64;
            }
        }

        // Phase 2, shards in parallel: merge with the fleet-global sum
        // and fleet size; fallback homes merge their neighborhood's
        // deliveries.
        let count = n as f64;
        let merges: Vec<RoundOutcome> = engines
            .par_iter_mut()
            .zip(cols.par_iter_mut())
            .enumerate()
            .map(|(k, (engine, col))| {
                engine.merge_with_sum(col, &params(k), layer_end, &global, count)
            })
            .collect();
        let mut outcome = RoundOutcome::default();
        for (c, out) in counters.iter_mut().zip(merges) {
            c.rounds += 1;
            c.fast_path_homes += out.fast_path_homes as u64;
            c.fallback_homes += out.fallback_homes as u64;
            outcome.fast_path_homes += out.fast_path_homes;
            outcome.fallback_homes += out.fallback_homes;
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
                .counters
                .iter()
                .zip(self.buses.iter())
                .map(|(c, bus)| HierShardState {
                    counters: *c,
                    bus: bus.export_state(),
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
        for (k, s) in state.shards.iter().enumerate() {
            self.buses[k]
                .restore_state(&s.bus)
                .map_err(|e| format!("shard {k}: {e}"))?;
            self.counters[k] = s.counters;
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

    fn run_hier(
        models: &mut [Mlp],
        engine: &mut HierarchicalRound,
        rounds: u64,
        alpha: Option<usize>,
        policy: &MergePolicy,
    ) -> RoundOutcome {
        let mut last = RoundOutcome::default();
        for round in 0..rounds {
            let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
            last = engine.run(
                &mut col,
                &HierParams {
                    round,
                    model_id: 0,
                    alpha,
                    policy,
                    participants: None,
                },
            );
        }
        last
    }

    fn run_flat(
        models: &mut [Mlp],
        bus: &BroadcastBus,
        rounds: u64,
        alpha: Option<usize>,
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
                    mode: AggregationMode::SharedSum,
                    participants: None,
                },
            );
        }
        last
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
    fn single_shard_is_bitwise_equal_to_flat_shared_sum() {
        for alpha in [None, Some(2)] {
            let mut flat = fleet(12, 7);
            let mut hier = fleet(12, 7);
            let policy = MergePolicy::default();
            let bus = BroadcastBus::new(12, LatencyModel::lan());
            let plan = ShardPlan::round_robin(12, 1);
            let mut engine =
                HierarchicalRound::new(plan, LatencyModel::lan(), &FaultConfig::default());
            let a = run_flat(&mut flat, &bus, 3, alpha, &policy);
            let b = run_hier(&mut hier, &mut engine, 3, alpha, &policy);
            assert_eq!(a, b, "alpha={alpha:?}");
            assert_eq!(bits(&flat), bits(&hier), "alpha={alpha:?}");
            assert_eq!(bus.stats(), engine.total_stats(), "alpha={alpha:?}");
        }
    }

    #[test]
    fn single_shard_matches_flat_under_chaos() {
        let cfg = FaultConfig {
            seed: 99,
            loss_rate: 0.3,
            corrupt_rate: 0.2,
            straggler_rate: 0.2,
            ..FaultConfig::default()
        };
        let policy = MergePolicy::default();
        let mut flat = fleet(6, 21);
        let mut hier = fleet(6, 21);
        let bus = BroadcastBus::with_faults(6, LatencyModel::lan(), &cfg);
        let plan = ShardPlan::round_robin(6, 1);
        let mut engine = HierarchicalRound::new(plan, LatencyModel::lan(), &cfg);
        run_flat(&mut flat, &bus, 4, None, &policy);
        run_hier(&mut hier, &mut engine, 4, None, &policy);
        assert_eq!(bits(&flat), bits(&hier));
        assert_eq!(bus.stats(), engine.total_stats());
    }

    #[test]
    fn multi_shard_round_is_deterministic_and_population_weighted() {
        let run = |plan: ShardPlan| {
            let mut models = fleet(9, 5);
            let mut engine =
                HierarchicalRound::new(plan, LatencyModel::lan(), &FaultConfig::default());
            let out = run_hier(
                &mut models,
                &mut engine,
                2,
                Some(2),
                &MergePolicy::default(),
            );
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
    fn fast_path_merges_against_the_fleet_global_mean() {
        // One round over uneven shards must match the flat SharedSum
        // full-fleet average within float tolerance: the sum-of-sums
        // weighting makes S identical up to re-association.
        let n = 7;
        let mut hier = fleet(n, 31);
        let plan = ShardPlan::from_members(vec![vec![0, 1, 2, 3], vec![4, 5], vec![6]]);
        let mut engine = HierarchicalRound::new(plan, LatencyModel::lan(), &FaultConfig::default());
        let out = run_hier(&mut hier, &mut engine, 1, None, &MergePolicy::default());
        assert_eq!(out.fast_path_homes, n, "singleton shard must stay eligible");

        let mut flat = fleet(n, 31);
        let bus = BroadcastBus::new(n, LatencyModel::lan());
        run_flat(&mut flat, &bus, 1, None, &MergePolicy::default());
        for (h, s) in hier.iter().zip(flat.iter()) {
            for (lh, ls) in h.export_all().iter().zip(s.export_all().iter()) {
                for (x, y) in lh.iter().zip(ls.iter()) {
                    assert!((x - y).abs() <= 1e-12 * x.abs().max(1.0), "{x} vs {y}");
                }
            }
        }
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
        run_hier(&mut models, &mut engine, 3, None, &MergePolicy::default());
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
            PayloadCodec::TopK { fraction: 0.1 },
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
                let out = run_hier(&mut models, &mut engine, 1, None, &MergePolicy::default());
                assert_eq!(out.fast_path_homes, n, "{codec:?} K={shards}");

                let bus_messages: u64 = engine.buses.iter().map(|b| b.stats().messages).sum();
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
        let mut models = fleet(n, 13);
        let plan = ShardPlan::round_robin(n, 2);
        let mut engine = HierarchicalRound::new(plan, LatencyModel::lan(), &FaultConfig::default());
        let mut col: Vec<&mut Mlp> = models.iter_mut().collect();
        let out = engine.run(
            &mut col,
            &HierParams {
                round: 0,
                model_id: 0,
                alpha: None,
                policy: &MergePolicy::default(),
                participants: Some(&mask),
            },
        );
        assert_eq!(out.fast_path_homes, 0);
        assert_eq!(out.fallback_homes, n);
    }
}
