//! The five workloads and their configurations, written out here field
//! by field so that editing an experiment config elsewhere never
//! changes what the benchmark measures. Knobs a workload leaves off
//! (faults, sensor faults, supervision, checkpoint policy, precision)
//! keep the library defaults.
//!
//! Why each workload exists is in the README and `BENCHMARK.json`.

use pfdrl_core::{AggregationMode, EmsMethod, SimConfig};
use pfdrl_data::dataset::TargetTransform;
use pfdrl_data::DeviceType;
use pfdrl_drl::{DqnConfig, EpsilonSchedule};
use pfdrl_fl::{PayloadCodec, ShardAssignment};
use pfdrl_forecast::{ForecastMethod, TrainConfig};
use pfdrl_serve::ServeConfig;

/// Every workload runs the paper's method.
pub const METHOD: EmsMethod = EmsMethod::Pfdrl;

/// Open-loop offered rate of `serve_stream`'s second phase. Capacity
/// is roughly 380k decisions/s (two per line), so 150k lines/s sits
/// below saturation, where latency is stable from run to run.
pub const SERVE_LINES_PER_S: u64 = 150_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperDay,
    FleetDay,
    FedRound,
    FedRoundQ8,
    ServeStream,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PaperDay,
        Workload::FleetDay,
        Workload::FedRound,
        Workload::FedRoundQ8,
        Workload::ServeStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDay => "paper_day",
            Workload::FleetDay => "fleet_day",
            Workload::FedRound => "fed_round",
            Workload::FedRoundQ8 => "fed_round_q8",
            Workload::ServeStream => "serve_stream",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big a run is: the measured workload, or a miniature of it with
/// the same code paths, for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

impl Scale {
    fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// The DQN of the paper-shaped workloads: the paper's 8 hidden layers,
/// narrowed to 16 units for a single-core budget.
fn paper_dqn(seed: u64) -> DqnConfig {
    DqnConfig {
        lr: 1e-3,
        gamma: 0.9,
        replay_capacity: 2000,
        target_sync: 100,
        batch: 24,
        warmup: 48,
        huber_delta: 1.0,
        epsilon: EpsilonSchedule::default(),
        hidden_layers: 8,
        hidden_width: 16,
        double: false,
        seed,
    }
}

/// The small DQN of the fleet-sized workloads (3 hidden layers x 12).
fn small_dqn(seed: u64) -> DqnConfig {
    DqnConfig {
        hidden_layers: 3,
        hidden_width: 12,
        batch: 16,
        warmup: 32,
        ..paper_dqn(seed)
    }
}

/// Evaluation days the day workloads may run. Only an upper bound on
/// how many days one run can time; no run comes near it.
const DAY_CAP: u64 = 400;

/// `paper_day`: 10 homes x {TV, game console, set-top box}, LSTM
/// forecasters, 8x16 DQN, alpha = 6, gamma = 12 h, a gradient step
/// every 6 env steps, per-home aggregation. The forecasters train for 4
/// epochs on 2 days so three set-ups fit in one run; their shape, and
/// with it the cost of a day, is the reproduction's.
pub fn paper_day(seed: u64, scale: Scale) -> SimConfig {
    SimConfig {
        seed,
        n_residences: scale.pick(10, 2),
        devices: scale.pick(
            vec![
                DeviceType::Tv,
                DeviceType::GameConsole,
                DeviceType::SetTopBox,
            ],
            vec![DeviceType::Tv],
        ),
        train_days: 2,
        eval_days: DAY_CAP,
        eval_start_day: 2,
        window: 16,
        horizon: 15,
        stride: scale.pick(9, 60),
        transform: TargetTransform::default(),
        forecast_method: ForecastMethod::Lstm,
        train: TrainConfig {
            lr: 0.02,
            max_epochs: scale.pick(4, 1),
            batch: 64,
            tol: 1e-4,
            patience: 3,
            seed,
        },
        beta_hours: 12.0,
        gamma_hours: 12.0,
        alpha: 6,
        state_window: 4,
        dqn: paper_dqn(seed),
        train_every: 6,
        ..SimConfig::default()
    }
}

/// `fleet_day`: the paper's 669-home neighbourhood, one TV each, linear
/// forecasters and a small DQN, federated through 8 round-robin shards.
pub fn fleet_day(seed: u64, scale: Scale) -> SimConfig {
    SimConfig {
        seed,
        n_residences: scale.pick(669, 6),
        devices: vec![DeviceType::Tv],
        train_days: 2,
        eval_days: DAY_CAP,
        eval_start_day: 2,
        window: 8,
        horizon: 5,
        stride: 5,
        transform: TargetTransform::default(),
        forecast_method: ForecastMethod::Lr,
        train: TrainConfig {
            lr: 0.03,
            max_epochs: 8,
            batch: 64,
            tol: 1e-4,
            patience: 3,
            seed,
        },
        beta_hours: 12.0,
        gamma_hours: 6.0,
        alpha: 2,
        state_window: 3,
        dqn: small_dqn(seed),
        train_every: 8,
        aggregation: AggregationMode::Hierarchical {
            shards: scale.pick(8, 2),
            assignment: ShardAssignment::RoundRobin,
        },
        ..SimConfig::default()
    }
}

/// `fed_round` / `fed_round_q8`: 4,096 homes x TV with the paper-shape
/// DQN (alpha = 6, a 12.8 KB base-layer update per home), federated
/// through 16 round-robin shards of 256 homes. Only federation runs.
pub fn fed_round(seed: u64, scale: Scale, codec: PayloadCodec) -> SimConfig {
    SimConfig {
        seed,
        n_residences: scale.pick(4096, 16),
        devices: vec![DeviceType::Tv],
        train_days: 1,
        eval_days: 1,
        eval_start_day: 1,
        alpha: 6,
        state_window: 4,
        dqn: paper_dqn(seed),
        aggregation: AggregationMode::Hierarchical {
            shards: scale.pick(16, 2),
            assignment: ShardAssignment::RoundRobin,
        },
        compression: codec,
        ..SimConfig::default()
    }
}

/// The codec of `fed_round_q8`.
pub const Q8: PayloadCodec = PayloadCodec::QuantizedI8 {
    per_layer_scale: true,
};

/// `serve_stream`: 256 homes x {TV, game console} with linear
/// forecasters, served over one priming day and one decided day.
pub fn serve_stream(seed: u64, scale: Scale) -> (SimConfig, ServeConfig) {
    let cfg = SimConfig {
        n_residences: scale.pick(256, 4),
        devices: vec![DeviceType::Tv, DeviceType::GameConsole],
        eval_days: 1,
        aggregation: AggregationMode::PerHome,
        ..fleet_day(seed, scale)
    };
    let scfg = ServeConfig {
        chunk_minutes: 60,
        snapshot_every_minutes: 0,
        n_shards: 4,
        queue_capacity: 4096,
        train: true,
        abort_after_minute: None,
    };
    (cfg, scfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_config_validates_at_both_scales() {
        for scale in [Scale::Full, Scale::Smoke] {
            paper_day(1, scale).validate();
            fleet_day(1, scale).validate();
            fed_round(1, scale, PayloadCodec::Raw).validate();
            fed_round(1, scale, Q8).validate();
            let (cfg, scfg) = serve_stream(1, scale);
            cfg.validate();
            scfg.validate();
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn paper_update_is_the_stated_size() {
        let cfg = fed_round(1, Scale::Full, PayloadCodec::Raw);
        assert_eq!(cfg.estimated_update_bytes(), 12_800);
    }
}
