//! # pfdrl-fl
//!
//! The federated-learning substrate of PFDRL:
//!
//! * [`BroadcastBus`] — the decentralized LAN broadcast between
//!   residences: one delivery call per round over the caller's
//!   payloads, with byte and simulated-latency accounting;
//! * [`DflRound`] — the federation round engine: reused export
//!   buffers, deliveries read in place, and per-home merges (parallel
//!   on large columns) bit-identical to the sequential reference;
//! * [`HierarchicalRound`] — neighborhood shards over that engine and
//!   the O(N) shared-sum fast path (one shard is the flat topology);
//! * [`CloudRound`] — the centralized parameter server of the Cloud, FL
//!   and FRL baselines, as a column engine of the same shape;
//! * [`aggregate`] — FedAvg (Algorithm 1's `W ← Σ W_n / N` over the
//!   local model and every valid layer that arrived), hardened with
//!   typed [`AggregateError`]s;
//! * [`LayerSplit`] — the α base/personalization split (Eqs. 7–8);
//! * [`MinuteSchedule`] — the serve loop's integer-minute cadences;
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
//! // One round: each residence's update, in sender order, delivered
//! // to every other residence's inbox.
//! let sent = [
//!     aggregate::snapshot_update(&m0, 0, 1, 0),
//!     aggregate::snapshot_update(&m1, 1, 1, 0),
//! ];
//! let mut bus = BroadcastBus::new(2, LatencyModel::lan());
//! let mut inboxes = Vec::new();
//! bus.deliver(&sent, 0, &mut inboxes);
//!
//! // Each residence merges what it received with its own model. The
//! // merge validates every layer and reports rejections instead of
//! // panicking; with clean traffic the report is empty.
//! for (inbox, model) in inboxes.iter().zip([&mut m0, &mut m1]) {
//!     let received: Vec<_> = inbox.iter().map(|mail| mail.get(&sent)).collect();
//!     let report = aggregate::merge_updates(model, &received);
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

pub use aggregate::{merge_updates, snapshot_update, AggregateError, AggregationMode, MergeReport};
pub use bus::{BroadcastBus, BusState, BusStats, LatencyModel, Mail};
pub use cloud::{CloudRound, CloudStats};
pub use codec::{
    CodecError, LayerUpdate, ModelUpdate, PayloadCodec, CODEC_VERSION, CODEC_VERSION_MAX,
    CODEC_VERSION_Q8,
};
pub use fault::{CorruptKind, Delivery, DropReason, FaultConfig, FaultPlan};
pub use personalization::LayerSplit;
pub use round::{dfl_round_reference, DflRound, RoundParams};
pub use scheduler::MinuteSchedule;
pub use shard::{
    HierShardState, HierState, HierarchicalRound, RoundOutcome, ShardAssignment, ShardCounters,
    ShardPlan,
};
