//! End-to-end pipeline runner: forecaster training followed by the EMS
//! phase, with cost accounting for the time-overhead figures.

use crate::config::SimConfig;
use crate::ems::{EmsPhase, EmsState};
use crate::forecast::{train_forecasters, ForecastPhase};
use crate::method::EmsMethod;
use pfdrl_env::EnergyAccount;
use pfdrl_store::{CheckpointStore, RunSnapshot, StoreError};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Instant;

/// A full run of one comparison method.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodRun {
    pub method: String,
    /// Forecaster-training wall-clock seconds.
    pub forecast_train_wall_s: f64,
    /// Forecaster-training simulated communication seconds.
    pub forecast_comm_s: f64,
    /// Forecaster-training bytes on the wire (post-compression).
    pub forecast_bytes: u64,
    /// Forecaster-training bytes before compression; equal to
    /// `forecast_bytes` under the default `Raw` codec.
    #[serde(default)]
    pub forecast_logical_bytes: u64,
    /// The EMS phase results.
    pub ems: EmsPhase,
}

impl MethodRun {
    /// Total time overhead (compute + simulated communication), seconds —
    /// the quantity compared in Figure 14.
    pub fn total_overhead_s(&self) -> f64 {
        self.forecast_train_wall_s + self.forecast_comm_s + self.ems.train_wall_s + self.ems.comm_s
    }

    /// Mean saved-standby fraction over the last third of eval days
    /// (converged performance).
    pub fn converged_saved_fraction(&self) -> f64 {
        let days = &self.ems.daily_saved_fraction;
        let tail = days.len().div_ceil(3);
        let slice = &days[days.len() - tail..];
        slice.iter().sum::<f64>() / slice.len() as f64
    }

    /// First eval day (0-based) on which the saved fraction reached
    /// `threshold` × the converged level — the Figure 9 convergence-speed
    /// measure. `None` if never reached.
    pub fn days_to_converge(&self, threshold: f64) -> Option<usize> {
        let target = threshold * self.converged_saved_fraction();
        self.ems
            .daily_saved_fraction
            .iter()
            .position(|&f| f >= target)
    }
}

/// The deterministic outcome of a run — every metric that must be
/// bit-identical between an uninterrupted run and a crash-resumed one.
/// Wall-clock timings are deliberately excluded (they can never be
/// reproduced); simulated communication time *is* included because the
/// latency model is a pure function of the transport statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    pub method: String,
    /// Forecast-phase simulated communication seconds.
    pub forecast_comm_s: f64,
    /// Forecast-phase bytes on the wire (post-compression).
    pub forecast_bytes: u64,
    /// Forecast-phase bytes before compression.
    #[serde(default)]
    pub forecast_logical_bytes: u64,
    /// EMS-phase simulated communication seconds.
    pub ems_comm_s: f64,
    /// EMS-phase bytes on the wire (post-compression).
    pub ems_comm_bytes: u64,
    /// EMS-phase bytes before compression.
    #[serde(default)]
    pub ems_comm_logical_bytes: u64,
    /// Aggregate energy account over all homes, devices and days.
    pub account: EnergyAccount,
    pub daily_saved_fraction: Vec<f64>,
    pub daily_saved_kwh_per_client: Vec<f64>,
    pub hourly_saved_kwh_per_client: Vec<f64>,
    pub hourly_standby_kwh_per_client: Vec<f64>,
    pub per_home_saved_fraction: Vec<f64>,
    pub per_home_saved_kwh: Vec<f64>,
}

impl MethodRun {
    /// The deterministic (wall-clock-free) projection of this run.
    pub fn result(&self) -> RunResult {
        RunResult {
            method: self.method.clone(),
            forecast_comm_s: self.forecast_comm_s,
            forecast_bytes: self.forecast_bytes,
            forecast_logical_bytes: self.forecast_logical_bytes,
            ems_comm_s: self.ems.comm_s,
            ems_comm_bytes: self.ems.comm_bytes,
            ems_comm_logical_bytes: self.ems.comm_logical_bytes,
            account: self.ems.account,
            daily_saved_fraction: self.ems.daily_saved_fraction.clone(),
            daily_saved_kwh_per_client: self.ems.daily_saved_kwh_per_client.clone(),
            hourly_saved_kwh_per_client: self.ems.hourly_saved_kwh_per_client.clone(),
            hourly_standby_kwh_per_client: self.ems.hourly_standby_kwh_per_client.clone(),
            per_home_saved_fraction: self.ems.per_home_saved_fraction.clone(),
            per_home_saved_kwh: self.ems.per_home_saved_kwh.clone(),
        }
    }
}

/// A [`MethodRun`] that may have been resumed from a checkpoint.
#[derive(Debug, Clone)]
pub struct ResumableRun {
    /// The completed run.
    pub run: MethodRun,
    /// First evaluation day executed by *this* process if the run was
    /// resumed from a snapshot; `None` for a from-scratch run.
    pub resumed_from_day: Option<u64>,
}

/// Runs one method end to end, writing no snapshots: the same run as
/// [`run_method_resumable`] without a checkpoint directory.
pub fn run_method(cfg: &SimConfig, method: EmsMethod) -> MethodRun {
    run_method_with_forecast(cfg, method).0
}

/// Runs one method and also returns the trained forecasters (for
/// experiments that need to evaluate forecast quality on the same run).
pub fn run_method_with_forecast(cfg: &SimConfig, method: EmsMethod) -> (MethodRun, ForecastPhase) {
    cfg.validate();
    let (run, forecast) = drive(cfg, method, None, None)
        .expect("a run without a store or a snapshot restores only its own snapshots");
    (run.run, forecast)
}

/// Runs one method with the configured [`CheckpointPolicy`]: if the
/// checkpoint directory already holds a snapshot of this exact run
/// (same config fingerprint, same method), execution resumes from it;
/// otherwise the run starts from scratch. Snapshots are written at the
/// configured day cadence. With checkpointing disabled this is
/// equivalent to [`run_method`].
///
/// [`CheckpointPolicy`]: crate::config::CheckpointPolicy
pub fn run_method_resumable(
    cfg: &SimConfig,
    method: EmsMethod,
) -> Result<ResumableRun, StoreError> {
    cfg.validate();
    let store = open_store(cfg)?;
    let snap = match &store {
        Some(s) => match s.latest()? {
            Some(path) => Some(CheckpointStore::load(path)?),
            None => None,
        },
        None => None,
    };
    drive(cfg, method, store.as_ref(), snap).map(|(run, _)| run)
}

/// Like [`run_method_resumable`], but resumes from an explicit
/// snapshot file instead of the newest one in the checkpoint
/// directory.
pub fn run_method_resume_from(
    cfg: &SimConfig,
    method: EmsMethod,
    snapshot: impl AsRef<Path>,
) -> Result<ResumableRun, StoreError> {
    cfg.validate();
    let store = open_store(cfg)?;
    let snap = CheckpointStore::load(snapshot)?;
    drive(cfg, method, store.as_ref(), Some(snap)).map(|(run, _)| run)
}

fn open_store(cfg: &SimConfig) -> Result<Option<CheckpointStore>, StoreError> {
    match &cfg.checkpoint.dir {
        Some(dir) => Ok(Some(CheckpointStore::open(dir, cfg.checkpoint.keep_last)?)),
        None => Ok(None),
    }
}

/// The execution loop behind every runner: trains the forecasters (or
/// restores them and the EMS from `snap`), then runs the EMS days,
/// saving to `store` at the configured cadence. The EMS clock starts
/// once the forecasters are in hand, so `ems.train_wall_s` never counts
/// forecast training.
fn drive(
    cfg: &SimConfig,
    method: EmsMethod,
    store: Option<&CheckpointStore>,
    snap: Option<RunSnapshot>,
) -> Result<(ResumableRun, ForecastPhase), StoreError> {
    let (forecast, snap) = match snap {
        Some(snap) => {
            let expected = cfg.run_hash();
            if snap.meta.config_hash != expected {
                return Err(StoreError::ConfigMismatch {
                    expected,
                    found: snap.meta.config_hash,
                });
            }
            if snap.meta.method != method.name() {
                return Err(StoreError::MethodMismatch {
                    expected: method.name().to_string(),
                    found: snap.meta.method.clone(),
                });
            }
            (ForecastPhase::from_state(cfg, &snap.forecast)?, Some(snap))
        }
        None => (train_forecasters(cfg, method), None),
    };

    let started = Instant::now();
    // Snapshots carry the forecast state; a run that writes none skips
    // exporting it.
    let (mut state, resumed_from_day, forecast_state) = match snap {
        Some(snap) => (
            EmsState::from_snapshot(cfg, &snap)?,
            Some(snap.meta.next_day),
            store.is_some().then_some(snap.forecast),
        ),
        None => (
            EmsState::fresh(cfg),
            None,
            store.is_some().then(|| forecast.export_state()),
        ),
    };

    let every = cfg.checkpoint.every_days.max(1);
    while !state.done(cfg) {
        state.advance_day(cfg, method, &forecast);
        let completed = state.next_day - cfg.eval_start_day;
        if let (Some(store), Some(forecast)) = (store, &forecast_state) {
            if completed.is_multiple_of(every) || state.done(cfg) {
                store.save(&state.to_snapshot(cfg, method, forecast.clone()))?;
            }
        }
        // Crash-simulation hook: die exactly as SIGKILL would, after
        // the checkpoint hook for the day has run.
        if cfg.checkpoint.abort_after_days == Some(completed) && !state.done(cfg) {
            std::process::abort();
        }
    }

    let ems = state.into_phase(cfg, started.elapsed().as_secs_f64());
    let run = MethodRun {
        method: method.name().to_string(),
        forecast_train_wall_s: forecast.train_wall_s,
        forecast_comm_s: forecast.comm_s,
        forecast_bytes: forecast.comm_bytes,
        forecast_logical_bytes: forecast.comm_logical_bytes,
        ems,
    };
    Ok((
        ResumableRun {
            run,
            resumed_from_day,
        },
        forecast,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_pipeline_completes_for_every_method() {
        let cfg = SimConfig::tiny(7);
        for method in EmsMethod::ALL {
            let run = run_method(&cfg, method);
            assert!(run.ems.account.minutes > 0, "{method} did nothing");
            assert!(run.total_overhead_s() > 0.0);
            let f = run.converged_saved_fraction();
            assert!((0.0..=1.0).contains(&f), "{method} fraction {f}");
        }
    }

    #[test]
    fn ems_wall_clock_excludes_forecast_training() {
        let cfg = SimConfig::tiny(9);
        let started = Instant::now();
        let run = run_method_resumable(&cfg, EmsMethod::Pfdrl).unwrap().run;
        let elapsed = started.elapsed().as_secs_f64();
        let phases = run.forecast_train_wall_s + run.ems.train_wall_s;
        assert!(
            phases <= elapsed,
            "forecast {} s + EMS {} s exceed the call's {elapsed} s",
            run.forecast_train_wall_s,
            run.ems.train_wall_s
        );
    }

    #[test]
    fn days_to_converge_is_consistent() {
        let cfg = SimConfig::tiny(8);
        let run = run_method(&cfg, EmsMethod::Pfdrl);
        if let Some(d) = run.days_to_converge(0.8) {
            assert!(d < run.ems.daily_saved_fraction.len());
        }
    }
}
