//! # pfdrl-fl
//!
//! The federated-learning substrate of PFDRL:
//!
//! * [`BroadcastBus`] — the decentralized LAN broadcast between
//!   residences (lock-light `Arc`-shared mailboxes with byte and
//!   simulated-latency accounting);
//! * [`DflRound`] — the federation round engine: pooled zero-copy
//!   update exchange, per-home merges (parallel on large columns)
//!   bit-identical to the sequential reference, and the O(N) [`AggregationMode`]
//!   shared-reduction fast path;
//! * [`CloudAggregator`] — the centralized parameter server used by the
//!   Cloud/FL baselines;
//! * [`aggregate`] — FedAvg (Algorithm 1's `W ← Σ W_n / N`), hardened
//!   with typed [`AggregateError`]s, per-layer quorum and staleness
//!   decay ([`MergePolicy`]);
//! * [`LayerSplit`] — the α base/personalization split (Eqs. 7–8);
//! * [`PeriodicSchedule`] — the β and γ broadcast frequencies;
//! * [`fault`] — deterministic chaos injection (churn, loss,
//!   stragglers, corruption) for robustness experiments
//!   ([`FaultConfig`], [`FaultPlan`]).
//!
//! ## Example
//!
//! ```
//! use pfdrl_fl::{BroadcastBus, LatencyModel, aggregate};
//! use pfdrl_nn::{Mlp, Activation, Layered};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Two residences with independently initialized models.
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut m0 = Mlp::new(&[4, 8, 1], Activation::Relu, Activation::Identity, &mut rng);
//! let mut m1 = Mlp::new(&[4, 8, 1], Activation::Relu, Activation::Identity, &mut rng);
//!
//! let bus = BroadcastBus::new(2, LatencyModel::lan());
//! bus.broadcast(aggregate::snapshot_update(&m0, 0, 1, 0));
//! bus.broadcast(aggregate::snapshot_update(&m1, 1, 1, 0));
//!
//! // Each residence merges what it received with its own model. The
//! // merge validates every layer and reports rejections instead of
//! // panicking; with clean traffic the report is empty.
//! for (id, model) in [(0, &mut m0), (1, &mut m1)] {
//!     let updates = bus.drain(id);
//!     let refs: Vec<&_> = updates.iter().map(|u| u.as_ref()).collect();
//!     let report = aggregate::merge_updates(model, &refs);
//!     assert!(report.is_clean());
//! }
//! // Both models now hold the same averaged parameters.
//! assert_eq!(m0.export_layer(0), m1.export_layer(0));
//! ```

pub mod aggregate;
pub mod bus;
pub mod cloud;
pub mod codec;
pub mod fault;
pub mod personalization;
pub mod round;
pub mod scheduler;
pub mod shard;
pub mod topology;

/// SplitMix64-style hash used by the deterministic gossip topology.
#[inline]
pub(crate) fn topology_hash(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub use aggregate::{
    fedavg_in_place, merge_updates, merge_updates_with, snapshot_update, AggregateError,
    AggregationMode, MergePolicy, MergeReport,
};
pub use bus::{BroadcastBus, BusState, BusStats, LatencyModel};
pub use cloud::{CloudAggregator, CloudState, CloudStats};
pub use codec::{
    CodecError, LayerUpdate, ModelUpdate, PayloadCodec, CODEC_VERSION, CODEC_VERSION_MAX,
    CODEC_VERSION_Q8, CODEC_VERSION_TOPK, MAX_SPARSE_LAYER_LEN,
};
pub use fault::{CorruptKind, Delivery, DropReason, FaultConfig, FaultInjector, FaultPlan};
pub use personalization::LayerSplit;
pub use round::{dfl_round_reference, DflRound, RoundOutcome, RoundParams, UpdatePool};
pub use scheduler::{MinuteSchedule, PeriodicSchedule};
pub use shard::{
    HierParams, HierShardState, HierState, HierarchicalRound, ShardAssignment, ShardCounters,
    ShardPlan,
};
pub use topology::Topology;
