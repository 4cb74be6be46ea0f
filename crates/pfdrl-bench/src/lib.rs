//! # pfdrl-bench
//!
//! Experiment-scale configurations, result printing, and the `repro`
//! binary that regenerates every table and figure of the paper
//! (`cargo run --release -p pfdrl-bench --bin repro -- all`).
//!
//! Scales are sized for a single-core CI box: the shapes of the paper's
//! figures (orderings, peaks, crossovers) are preserved while absolute
//! wall-clock stays in minutes. The `--quick` flag drops to smoke-test
//! scale. Timing lives in the repository benchmark (`benchmark/`).

pub mod alloc;

use pfdrl_core::experiment::Series;
use pfdrl_core::SimConfig;
use pfdrl_data::dataset::TargetTransform;
use pfdrl_data::DeviceType;
use pfdrl_drl::DqnConfig;
use pfdrl_forecast::{ForecastMethod, TrainConfig};

/// The standard reproduction scale: 10 residences, 3 standby-heavy
/// devices, 4 training days, 6 EMS days, the paper's 8-hidden-layer DQN
/// (narrowed to 16 units for single-core wall-clock).
pub fn repro_config(seed: u64) -> SimConfig {
    let mut dqn = DqnConfig::slim(seed);
    dqn.hidden_width = 16;
    dqn.batch = 24;
    dqn.warmup = 48;
    SimConfig {
        seed,
        n_residences: 10,
        devices: vec![
            DeviceType::Tv,
            DeviceType::GameConsole,
            DeviceType::SetTopBox,
        ],
        train_days: 4,
        eval_days: 6,
        eval_start_day: 4,
        window: 16,
        horizon: 15,
        stride: 9,
        transform: TargetTransform::default(),
        forecast_method: ForecastMethod::Lstm,
        train: TrainConfig {
            lr: 0.02,
            max_epochs: 14,
            ..TrainConfig::with_seed(seed)
        },
        beta_hours: 12.0,
        gamma_hours: 12.0,
        alpha: 6,
        state_window: 4,
        dqn,
        train_every: 6,
        fault: pfdrl_fl::FaultConfig::default(),
        checkpoint: pfdrl_core::CheckpointPolicy::default(),
        aggregation: pfdrl_fl::AggregationMode::PerHome,
        sensor_fault: pfdrl_data::SensorFaultConfig::default(),
        compression: pfdrl_fl::PayloadCodec::Raw,
    }
}

/// The end-to-end EMS-day configuration of the full-scale canary:
/// repro scale trimmed to one evaluated day so a run stays in tens of
/// seconds.
pub fn bench_ems_config() -> SimConfig {
    let mut cfg = repro_config(42);
    cfg.train_days = 2;
    cfg.eval_start_day = 2;
    cfg.eval_days = 1;
    cfg
}

/// Forecast-only experiments (Figures 3, 5–8) skip the EMS phase, so a
/// lighter eval span keeps sweeps fast.
pub fn forecast_config(seed: u64) -> SimConfig {
    let mut cfg = repro_config(seed);
    cfg.eval_days = 3;
    cfg
}

/// Client-scaling config for Figure 8: two devices, short spans, so
/// sweeping up to 140+ residences stays tractable on one core.
pub fn clients_config(seed: u64) -> SimConfig {
    let mut cfg = forecast_config(seed);
    cfg.devices = vec![DeviceType::Tv, DeviceType::SetTopBox];
    cfg.train_days = 2;
    cfg.eval_start_day = 2;
    cfg.eval_days = 2;
    cfg.stride = 12;
    cfg
}

/// Smoke-test scale used by `repro --quick`.
pub fn quick_config(seed: u64) -> SimConfig {
    SimConfig::tiny(seed)
}

/// Formats a labelled series as an aligned two-column table.
pub fn format_series(s: &Series) -> String {
    let mut out = format!("{}\n", s.label);
    for (x, y) in &s.points {
        out.push_str(&format!("  {x:>8.2}  {y:>10.4}\n"));
    }
    out
}

/// Formats several series as a matrix: rows = x values of the first
/// series, one column per series.
pub fn format_series_table(series: &[Series]) -> String {
    assert!(!series.is_empty(), "no series to format");
    let mut out = String::from("       x");
    for s in series {
        out.push_str(&format!("  {:>10}", s.label));
    }
    out.push('\n');
    for (i, (x, _)) in series[0].points.iter().enumerate() {
        out.push_str(&format!("{x:>8.2}"));
        for s in series {
            match s.points.get(i) {
                Some((_, y)) => out.push_str(&format!("  {y:>10.4}")),
                None => out.push_str(&format!("  {:>10}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_validate() {
        repro_config(0).validate();
        bench_ems_config().validate();
        forecast_config(1).validate();
        clients_config(2).validate();
        quick_config(3).validate();
    }

    #[test]
    fn repro_keeps_eight_hidden_layers() {
        // The alpha sweep is defined over the paper's 8-layer structure.
        assert_eq!(repro_config(0).dqn.hidden_layers, 8);
    }

    #[test]
    fn format_series_is_aligned() {
        let s = Series::new("test", vec![(1.0, 0.5), (2.0, 0.75)]);
        let out = format_series(&s);
        assert!(out.contains("test"));
        assert!(out.contains("0.5000"));
        assert_eq!(out.lines().count(), 3);
    }

    #[test]
    fn format_table_handles_ragged_series() {
        let a = Series::new("a", vec![(1.0, 0.1), (2.0, 0.2)]);
        let b = Series::new("b", vec![(1.0, 0.3)]);
        let out = format_series_table(&[a, b]);
        assert!(out.contains('-'));
    }
}
