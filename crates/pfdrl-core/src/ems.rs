//! Phase 2 of every pipeline: running the DRL energy-management system
//! over the evaluation days, with the method's DRL federation mode
//! (Table 2, "EMS" column).
//!
//! * **Local / Cloud / FL** — every home trains its DQNs alone.
//! * **FRL** — full Q-networks are FedAvg-ed through the cloud every γ
//!   hours.
//! * **PFDRL** — only the first α layers are broadcast over the LAN every
//!   γ hours; the remaining layers stay personal (Eqs. 7–8).
//!
//! Each simulated day is split into γ-aligned segments; all residences
//! advance their episodes through a segment in parallel (rayon), then the
//! federation step runs at the boundary.

use crate::config::{HealthPolicy, SimConfig};
use crate::forecast::ForecastPhase;
use crate::method::EmsMethod;
use pfdrl_data::{
    impute_forward_fill, Archetype, DayTrace, HouseholdSpec, TraceGenerator, MINUTES_PER_DAY,
    WATT_CEILING,
};
use pfdrl_drl::{DqnAgent, DqnConfig};
use pfdrl_env::{DeviceEnv, EnergyAccount, EnvConfig};
use pfdrl_fl::{
    aggregate, AggregationMode, BroadcastBus, CloudAggregator, DflRound, HierarchicalRound,
    LatencyModel, MergePolicy, RoundParams, ShardPlan,
};
use pfdrl_forecast::PredictWorkspace;
use pfdrl_nn::{Layered, Matrix};
use pfdrl_store::{
    ForecastState, HealthState as HealthSection, HomeHealthRecord, MetricsState, RunSnapshot,
    SnapshotMeta, StoreError, TransportState,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// How a method federates its DRL agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrlFederation {
    /// No sharing (Local, Cloud, FL).
    None,
    /// Full-model FedAvg through the cloud (FRL).
    CloudFull,
    /// α base layers over the LAN (PFDRL).
    LanAlpha(usize),
}

impl EmsMethod {
    /// The DRL federation mode of this method.
    pub fn drl_federation(self, alpha: usize) -> DrlFederation {
        match self {
            EmsMethod::Local | EmsMethod::Cloud | EmsMethod::Fl => DrlFederation::None,
            EmsMethod::Frl => DrlFederation::CloudFull,
            EmsMethod::Pfdrl => DrlFederation::LanAlpha(alpha),
        }
    }
}

/// Health of one home's telemetry stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthState {
    /// Readings are clean (or repaired below the dirty threshold).
    Healthy,
    /// Recent day(s) needed above-threshold imputation; still uploads.
    Degraded,
    /// Withheld from federation uploads until re-admitted.
    Quarantined,
}

/// Per-home telemetry health machine: Healthy → Degraded on a dirty
/// day, Degraded → Quarantined after `quarantine_after_days`
/// consecutive dirty days, Quarantined → Healthy again only after
/// `readmit_after_days` consecutive clean days (hysteresis, so a home
/// flapping between clean and dirty stays out of the federation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeHealth {
    /// Current state.
    pub state: HealthState,
    /// Consecutive dirty days (escalation counter).
    pub dirty_days: u32,
    /// Consecutive clean days while quarantined (re-admission counter).
    pub clean_days: u32,
}

impl Default for HomeHealth {
    fn default() -> Self {
        HomeHealth {
            state: HealthState::Healthy,
            dirty_days: 0,
            clean_days: 0,
        }
    }
}

impl HomeHealth {
    /// Whether this home is withheld from federation uploads.
    pub fn quarantined(&self) -> bool {
        self.state == HealthState::Quarantined
    }

    /// Feeds one completed day's imputation verdict; returns whether
    /// the state changed.
    pub fn observe_day(&mut self, dirty: bool, policy: &HealthPolicy) -> bool {
        let before = self.state;
        if dirty {
            self.clean_days = 0;
            if self.state != HealthState::Quarantined {
                self.dirty_days += 1;
                self.state = if self.dirty_days >= policy.quarantine_after_days {
                    HealthState::Quarantined
                } else {
                    HealthState::Degraded
                };
            }
        } else {
            match self.state {
                HealthState::Healthy => {}
                HealthState::Degraded => {
                    self.state = HealthState::Healthy;
                    self.dirty_days = 0;
                }
                HealthState::Quarantined => {
                    self.clean_days += 1;
                    if self.clean_days >= policy.readmit_after_days {
                        self.state = HealthState::Healthy;
                        self.dirty_days = 0;
                        self.clean_days = 0;
                    }
                }
            }
        }
        self.state != before
    }
}

/// Result of the EMS phase.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmsPhase {
    /// Aggregate account over all homes, devices and days.
    pub account: EnergyAccount,
    /// Per-eval-day saved-standby fraction across the neighbourhood
    /// (the Figure 9 convergence curve).
    pub daily_saved_fraction: Vec<f64>,
    /// Per-eval-day saved energy per client, kWh (Figure 9 left axis).
    pub daily_saved_kwh_per_client: Vec<f64>,
    /// Saved energy per client by hour of day, kWh (Figure 11).
    pub hourly_saved_kwh_per_client: Vec<f64>,
    /// Available standby energy per client by hour of day, kWh.
    pub hourly_standby_kwh_per_client: Vec<f64>,
    /// Per-home saved fraction over the last third of eval days
    /// (Figure 12 error bars).
    pub per_home_saved_fraction: Vec<f64>,
    /// Per-home saved energy over the last third of eval days, kWh.
    pub per_home_saved_kwh: Vec<f64>,
    /// Wall-clock compute time, seconds.
    pub train_wall_s: f64,
    /// Simulated communication time, seconds.
    pub comm_s: f64,
    /// Bytes moved over the simulated network (wire size, i.e. after
    /// any payload compression).
    pub comm_bytes: u64,
    /// Bytes the same traffic would occupy uncompressed (8 B/param).
    /// Equal to `comm_bytes` under the default `Raw` codec.
    #[serde(default)]
    pub comm_logical_bytes: u64,
    /// Device-minutes repaired by forward-fill imputation.
    #[serde(default)]
    pub imputed_minutes: u64,
    /// Health state transitions across all homes and days.
    #[serde(default)]
    pub health_transitions: u64,
    /// Home-days spent quarantined (withheld from uploads).
    #[serde(default)]
    pub quarantined_home_days: u64,
    /// Divergence-supervisor rollbacks to the last good checkpoint.
    #[serde(default)]
    pub rollbacks: u64,
    /// Per-eval-day fleet mean train loss (supervision input). Only
    /// populated when sensor faults or supervision are active — it is
    /// not part of the snapshot otherwise, so exposing it would break
    /// resumed-vs-uninterrupted equality on plain runs.
    #[serde(default)]
    pub daily_mean_loss: Vec<f64>,
}

/// Per-minute prediction of one device-day, produced by feeding the
/// forecaster windows of *real* readings that end `horizon` minutes
/// before each target minute.
///
/// Allocating reference implementation; the day pipeline runs
/// [`predict_day_into`], which is pinned bitwise-identical to this.
pub fn predict_day(
    cfg: &SimConfig,
    forecaster: &dyn pfdrl_forecast::Forecaster,
    prev_day: &DayTrace,
    today: &DayTrace,
    scale: f64,
) -> Vec<f64> {
    let window = cfg.window;
    let horizon = cfg.horizon;
    let transform = cfg.transform;
    let watts_at = |idx: usize| {
        if idx < MINUTES_PER_DAY {
            prev_day.watts[idx]
        } else {
            today.watts[idx - MINUTES_PER_DAY]
        }
    };
    let mut inputs = Vec::with_capacity(MINUTES_PER_DAY);
    for t in 0..MINUTES_PER_DAY {
        let end = MINUTES_PER_DAY + t - horizon; // exclusive window end
        let startw = end - window;
        let mut feat = Vec::with_capacity(window + 2);
        for idx in startw..end {
            feat.push(transform.encode(watts_at(idx) / scale));
        }
        let angle = 2.0 * std::f64::consts::PI * t as f64 / MINUTES_PER_DAY as f64;
        feat.push(angle.sin());
        feat.push(angle.cos());
        inputs.push(feat);
    }
    forecaster
        .predict(&inputs)
        .iter()
        .map(|p| (transform.decode(*p) * scale).max(0.0))
        .collect()
}

/// Reusable buffers for [`predict_day_into`]: the streaming
/// featurizer's encoded-series span, the flat input matrix handed to
/// the forecaster, the raw prediction vector, and the forecaster's own
/// inference scratch.
#[derive(Debug, Default)]
pub struct PredictDayWorkspace {
    encoded: Vec<f64>,
    inputs: Matrix,
    raw: Vec<f64>,
    fws: PredictWorkspace,
}

/// Allocation-free [`predict_day`] writing into `out`.
///
/// Consecutive minutes share `window - 1` of their window elements, so
/// instead of encoding `window` values per minute this encodes the
/// whole span the windows touch exactly once and each input row copies
/// its slice of the encoded buffer. `transform.encode` is a pure
/// per-element function and the row contents, feature order and decode
/// step are unchanged, so the output is bit-identical to
/// [`predict_day`].
pub fn predict_day_into(
    cfg: &SimConfig,
    forecaster: &dyn pfdrl_forecast::Forecaster,
    prev_day: &DayTrace,
    today: &DayTrace,
    scale: f64,
    ws: &mut PredictDayWorkspace,
    out: &mut Vec<f64>,
) {
    let window = cfg.window;
    let horizon = cfg.horizon;
    let transform = cfg.transform;
    // Minute t's window covers concatenated-series indices
    // [1440 + t - horizon - window, 1440 + t - horizon); over all t the
    // used span is `window + 1439` elements starting at
    // `1440 - horizon - window`.
    let start0 = MINUTES_PER_DAY - horizon - window;
    let span = window + MINUTES_PER_DAY - 1;
    ws.encoded.clear();
    ws.encoded.reserve(span);
    for idx in start0..start0 + span {
        let w = if idx < MINUTES_PER_DAY {
            prev_day.watts[idx]
        } else {
            today.watts[idx - MINUTES_PER_DAY]
        };
        ws.encoded.push(transform.encode(w / scale));
    }
    ws.inputs.resize(MINUTES_PER_DAY, window + 2);
    for t in 0..MINUTES_PER_DAY {
        let row = ws.inputs.row_mut(t);
        row[..window].copy_from_slice(&ws.encoded[t..t + window]);
        let angle = 2.0 * std::f64::consts::PI * t as f64 / MINUTES_PER_DAY as f64;
        row[window] = angle.sin();
        row[window + 1] = angle.cos();
    }
    forecaster.predict_into(&ws.inputs, &mut ws.fws, &mut ws.raw);
    out.clear();
    out.extend(
        ws.raw
            .iter()
            .map(|p| (transform.decode(*p) * scale).max(0.0)),
    );
}

/// Predictions for the partial minute range `[r0, r1)` of a day,
/// appended to `out` (which must already hold rows `[0, r0)`).
///
/// The serve loop closes a day chunk by chunk, so it cannot featurize
/// all 1440 rows at once — but every forecaster's `predict_into`
/// treats each input row as an independent window, so predicting the
/// rows of a sub-span produces bit-identical values to slicing a
/// full-day [`predict_day_into`] (pinned by a test below). Row `t`'s
/// window ends at concatenated index `1440 + t - horizon`, so it only
/// needs `today_watts` up to index `t - horizon - 1 < r1 - 1`:
/// yesterday's full day plus the repaired prefix of today suffice.
#[allow(clippy::too_many_arguments)]
pub fn predict_span_into(
    cfg: &SimConfig,
    forecaster: &dyn pfdrl_forecast::Forecaster,
    prev_watts: &[f64],
    today_watts: &[f64],
    scale: f64,
    r0: usize,
    r1: usize,
    ws: &mut PredictDayWorkspace,
    out: &mut Vec<f64>,
) {
    debug_assert!(r0 <= r1 && r1 <= MINUTES_PER_DAY && out.len() == r0);
    if r0 == r1 {
        return;
    }
    let window = cfg.window;
    let horizon = cfg.horizon;
    let transform = cfg.transform;
    // Rows [r0, r1) touch concatenated-series indices
    // [start0 + r0, start0 + r1 - 1 + window).
    let start0 = MINUTES_PER_DAY - horizon - window;
    let span = (r1 - r0) + window - 1;
    ws.encoded.clear();
    ws.encoded.reserve(span);
    for idx in start0 + r0..start0 + r0 + span {
        let w = if idx < MINUTES_PER_DAY {
            prev_watts[idx]
        } else {
            today_watts[idx - MINUTES_PER_DAY]
        };
        ws.encoded.push(transform.encode(w / scale));
    }
    ws.inputs.resize(r1 - r0, window + 2);
    for (i, t) in (r0..r1).enumerate() {
        let row = ws.inputs.row_mut(i);
        row[..window].copy_from_slice(&ws.encoded[i..i + window]);
        let angle = 2.0 * std::f64::consts::PI * t as f64 / MINUTES_PER_DAY as f64;
        row[window] = angle.sin();
        row[window + 1] = angle.cos();
    }
    forecaster.predict_into(&ws.inputs, &mut ws.fws, &mut ws.raw);
    out.extend(
        ws.raw
            .iter()
            .map(|p| (transform.decode(*p) * scale).max(0.0)),
    );
}

/// Recycled buffers for one device's day: the trace pair (today's
/// trace becomes tomorrow's `prev` via a swap), the decoded
/// predictions, the persistent environment reloaded day over day with
/// [`DeviceEnv::load_day`], and the live episode's state
/// double-buffer.
#[derive(Default)]
struct DeviceDay {
    prev: DayTrace,
    today: DayTrace,
    /// Day index `today` currently holds; drives the prev/today swap.
    loaded_day: Option<u64>,
    pred: Vec<f64>,
    env: Option<DeviceEnv>,
    /// Current episode state `s_t`.
    cur: Vec<f64>,
    /// Scratch for `s_{t+1}`; swapped into `cur` after each step.
    next: Vec<f64>,
}

/// One home's recycled day-pipeline buffers.
#[derive(Default)]
struct HomeWorkspace {
    /// Static household description, built once (it is a pure function
    /// of the generator config).
    hh: Option<HouseholdSpec>,
    devices: Vec<DeviceDay>,
    pws: PredictDayWorkspace,
    /// Per-segment hour-of-day accumulators written by [`run_segment`].
    saved: [f64; 24],
    standby: [f64; 24],
    /// Device-minutes imputed while loading the current day's traces.
    imputed_minutes: u32,
    /// Per-day train-loss accumulators (zeroed at day load, summed
    /// across segments, folded into the fleet mean at day end).
    loss_sum: f64,
    loss_steps: u64,
    nonfinite_losses: u32,
}

/// Per-home day-pipeline workspaces. Pure transient scratch, like
/// [`EmsState::fed_engine`]: it holds no cross-day state an
/// uninterrupted run depends on (traces are regenerated bit-identically
/// from the seed when empty), so it is rebuilt fresh on resume and
/// never snapshotted.
#[derive(Default)]
pub struct DayWorkspace {
    homes: Vec<HomeWorkspace>,
}

impl DayWorkspace {
    fn ensure_shape(&mut self, n: usize, d: usize) {
        self.homes.resize_with(n, HomeWorkspace::default);
        for hw in &mut self.homes {
            hw.devices.resize_with(d, DeviceDay::default);
        }
    }
}

/// The cross-day state of an EMS run — exactly what must survive a
/// crash for the resumed run to be bit-identical to the uninterrupted
/// one. At a day boundary no episode is live, so this is the complete
/// persistent state: agents (networks, optimizers, replay, RNG
/// streams), federation transports (statistics plus any
/// straggler-parked updates from an active fault plan), the federation
/// round counter, and the metric accumulators.
///
/// Public so benchmarks and allocation tests can drive the run one
/// [`EmsState::advance_day`] at a time; normal callers use
/// [`run_ems`] or the resumable runners.
pub struct EmsState {
    pub agents: Vec<Vec<DqnAgent>>,
    pub bus: BroadcastBus,
    pub cloud: CloudAggregator,
    /// Reusable federation-round engine (scratch buffers + update
    /// pool). Pure transient workspace — it holds no cross-round
    /// state, so it is rebuilt fresh on resume and never snapshotted.
    pub fed_engine: DflRound,
    /// The two-level round engine, present exactly when the config
    /// selects [`AggregationMode::Hierarchical`]. Unlike `fed_engine`
    /// it owns the per-shard buses (stats, parked stragglers) and
    /// counters, so it rides the snapshot's optional SHARD section.
    pub hier: Option<HierarchicalRound>,
    /// Reusable per-home day-pipeline buffers (traces, predictions,
    /// environments, episode states). Pure transient workspace — like
    /// `fed_engine`, rebuilt fresh on resume and never snapshotted.
    pub day_ws: DayWorkspace,
    pub fed_round: u64,
    /// Next evaluation day to execute (absolute day index).
    pub next_day: u64,
    pub total: EnergyAccount,
    pub daily_saved_fraction: Vec<f64>,
    pub daily_saved_kwh_per_client: Vec<f64>,
    pub hourly_saved: [f64; 24],
    pub hourly_standby: [f64; 24],
    pub per_home_late: Vec<EnergyAccount>,
    /// Per-home telemetry health machines.
    pub health: Vec<HomeHealth>,
    /// Total device-minutes repaired by imputation.
    pub imputed_minutes: u64,
    /// Total health state transitions.
    pub health_transitions: u64,
    /// Home-days spent quarantined.
    pub quarantined_home_days: u64,
    /// Rollbacks the divergence supervisor performed (owned here so it
    /// rides the snapshot; incremented by the resumable runner).
    pub rollbacks: u64,
    /// Per-completed-day fleet mean train loss; NaN marks a day that
    /// produced any non-finite batch loss. The supervision detector is
    /// a pure function of this history.
    pub daily_mean_loss: Vec<f64>,
    /// Reusable upload-participation mask (transient scratch; rebuilt
    /// from `health` every day, never snapshotted).
    participants: Vec<bool>,
}

impl EmsState {
    /// Day-zero state with freshly seeded agents and empty transports.
    pub fn fresh(cfg: &SimConfig) -> Self {
        let env_cfg = EnvConfig {
            state_window: cfg.state_window,
        };
        let state_dim = env_cfg.state_dim();
        let n = cfg.n_residences;
        let d = cfg.devices_per_home();

        // One DQN per home-device pair.
        let agents: Vec<Vec<DqnAgent>> = (0..n)
            .map(|home| {
                (0..d)
                    .map(|device| {
                        DqnAgent::new(
                            state_dim,
                            DqnConfig {
                                seed: Self::agent_seed(cfg, home, device),
                                ..cfg.dqn.clone()
                            },
                        )
                    })
                    .collect()
            })
            .collect();

        EmsState {
            agents,
            // Federation transports, routed through the configured fault
            // plan (inert when cfg.fault is fault-free).
            bus: BroadcastBus::with_codec(n, LatencyModel::lan(), &cfg.fault, cfg.compression),
            cloud: CloudAggregator::with_codec(LatencyModel::cloud(), &cfg.fault, cfg.compression),
            fed_engine: DflRound::new(),
            hier: Self::build_hier(cfg),
            day_ws: DayWorkspace::default(),
            fed_round: 0,
            next_day: cfg.eval_start_day,
            total: EnergyAccount::new(),
            daily_saved_fraction: Vec::with_capacity(cfg.eval_days as usize),
            daily_saved_kwh_per_client: Vec::with_capacity(cfg.eval_days as usize),
            hourly_saved: [0.0f64; 24],
            hourly_standby: [0.0f64; 24],
            per_home_late: vec![EnergyAccount::new(); n],
            health: vec![HomeHealth::default(); n],
            imputed_minutes: 0,
            health_transitions: 0,
            quarantined_home_days: 0,
            rollbacks: 0,
            daily_mean_loss: Vec::with_capacity(cfg.eval_days as usize),
            participants: Vec::with_capacity(n),
        }
    }

    /// Builds the hierarchical round engine when the config selects the
    /// two-level topology. The shard plan is a pure function of the
    /// config: round-robin by home index, or grouped by the occupant
    /// archetype pfdrl-data deterministically assigns each household —
    /// so a resumed run always rebuilds the identical partition.
    pub(crate) fn build_hier(cfg: &SimConfig) -> Option<HierarchicalRound> {
        let AggregationMode::Hierarchical { shards, assignment } = cfg.aggregation else {
            return None;
        };
        let n = cfg.n_residences;
        let keys: Vec<u64> = (0..n as u64).map(|h| Archetype::assign(h) as u64).collect();
        let plan = ShardPlan::build(n, shards, assignment, Some(&keys));
        Some(HierarchicalRound::with_codec(
            plan,
            LatencyModel::lan(),
            &cfg.fault,
            cfg.compression,
        ))
    }

    fn agent_seed(cfg: &SimConfig, home: usize, device: usize) -> u64 {
        cfg.seed
            .wrapping_mul(0xC2B2_AE35)
            .wrapping_add((home as u64) << 13)
            .wrapping_add(device as u64)
    }

    /// Whether every evaluation day has been executed.
    pub fn done(&self, cfg: &SimConfig) -> bool {
        self.next_day >= cfg.eval_start_day + cfg.eval_days
    }

    /// Executes one evaluation day (`self.next_day`): builds the day's
    /// environments, walks the γ-aligned segments with federation at
    /// each boundary, and folds the day's accounts into the
    /// accumulators.
    pub fn advance_day(&mut self, cfg: &SimConfig, method: EmsMethod, forecast: &ForecastPhase) {
        self.advance_day_with(cfg, method, forecast, true);
    }

    /// [`EmsState::advance_day`] with training suppressed: agents act
    /// (greedily exploring as usual, consuming the same action RNG) but
    /// take no gradient steps. The divergence supervisor re-runs a
    /// rolled-back day through this, so the replacement day cannot
    /// re-diverge and the recovery is deterministic.
    pub fn advance_day_frozen(
        &mut self,
        cfg: &SimConfig,
        method: EmsMethod,
        forecast: &ForecastPhase,
    ) {
        self.advance_day_with(cfg, method, forecast, false);
    }

    fn advance_day_with(
        &mut self,
        cfg: &SimConfig,
        method: EmsMethod,
        forecast: &ForecastPhase,
        train: bool,
    ) {
        let day = self.next_day;
        let gen = TraceGenerator::new(cfg.generator());
        let env_cfg = EnvConfig {
            state_window: cfg.state_window,
        };
        let n = cfg.n_residences;
        let d = cfg.devices_per_home();
        let federation = method.drl_federation(cfg.alpha);
        let policy = cfg.fault.merge_policy();
        let gamma_minutes = ((cfg.gamma_hours * 60.0).round() as usize).max(1);
        let late_start = cfg.eval_start_day + cfg.eval_days - cfg.eval_days.div_ceil(3);

        // Sensor-fault plan: pure hash decisions per (home, device, day,
        // minute), so the corrupted stream is identical whether a trace
        // arrives via the prev/today swap or is regenerated after a
        // resume. Inactive plans skip both passes entirely, keeping the
        // fault-free pipeline bit-identical byte for byte.
        let plan = cfg.sensor_fault.plan();
        let faults_on = cfg.sensor_fault.is_active();

        // Build the day's envs (predictions + ground truth), per home,
        // into the recycled workspaces.
        self.day_ws.ensure_shape(n, d);
        self.day_ws
            .homes
            .par_iter_mut()
            .enumerate()
            .for_each(|(home, hw)| {
                let HomeWorkspace {
                    hh,
                    devices,
                    pws,
                    imputed_minutes,
                    loss_sum,
                    loss_steps,
                    nonfinite_losses,
                    ..
                } = hw;
                *imputed_minutes = 0;
                *loss_sum = 0.0;
                *loss_steps = 0;
                *nonfinite_losses = 0;
                let hh = hh.get_or_insert_with(|| gen.household(home as u64));
                for (device, dd) in devices.iter_mut().enumerate() {
                    let spec = &hh.devices[device];
                    if !spec.controllable {
                        continue;
                    }
                    if dd.loaded_day == Some(day - 1) {
                        std::mem::swap(&mut dd.prev, &mut dd.today);
                    } else {
                        gen.day_trace_into(hh, device, day - 1, &mut dd.prev);
                        if faults_on {
                            // Reproduce yesterday's corruption + repair
                            // so the regenerated prev matches what the
                            // swap path would carry. Yesterday's repairs
                            // were already counted when yesterday ran.
                            plan.corrupt_day(
                                home as u64,
                                device as u64,
                                day - 1,
                                &mut dd.prev.watts,
                            );
                            impute_forward_fill(&mut dd.prev.watts, WATT_CEILING, 0.0);
                        }
                    }
                    gen.day_trace_into(hh, device, day, &mut dd.today);
                    if faults_on {
                        plan.corrupt_day(home as u64, device as u64, day, &mut dd.today.watts);
                        *imputed_minutes +=
                            impute_forward_fill(&mut dd.today.watts, WATT_CEILING, 0.0);
                    }
                    dd.loaded_day = Some(day);
                    predict_day_into(
                        cfg,
                        forecast.models[home][device].as_ref(),
                        &dd.prev,
                        &dd.today,
                        spec.on_watts,
                        pws,
                        &mut dd.pred,
                    );
                    match &mut dd.env {
                        Some(env) => env.load_day(
                            spec.clone(),
                            &dd.pred,
                            &dd.today.watts,
                            &dd.today.modes,
                            env_cfg,
                        ),
                        None => {
                            dd.env = Some(DeviceEnv::new(
                                spec.clone(),
                                dd.pred.clone(),
                                dd.today.watts.clone(),
                                dd.today.modes.clone(),
                                env_cfg,
                            ));
                        }
                    }
                    dd.env
                        .as_mut()
                        .expect("just loaded")
                        .reset_into(&mut dd.cur);
                }
            });

        // Fold the day's imputation verdicts through the per-home
        // health machines (sequential, in home order). Today's dirt
        // decides today's federation participation: a home whose stream
        // needed heavy repair this morning does not upload tonight.
        let mut any_quarantined = false;
        if faults_on {
            for (home, hw) in self.day_ws.homes.iter().enumerate() {
                self.imputed_minutes += hw.imputed_minutes as u64;
                let dirty = hw.imputed_minutes >= cfg.health.dirty_minutes;
                if self.health[home].observe_day(dirty, &cfg.health) {
                    self.health_transitions += 1;
                }
                if self.health[home].quarantined() {
                    self.quarantined_home_days += 1;
                    any_quarantined = true;
                }
            }
        }
        self.participants.clear();
        if any_quarantined {
            self.participants
                .extend(self.health.iter().map(|h| !h.quarantined()));
        }
        let participants: Option<&[bool]> = if any_quarantined {
            Some(&self.participants)
        } else {
            None
        };

        // Walk the day in γ-aligned segments.
        let mut day_account = EnergyAccount::new();
        let day_minute0 = (day - cfg.eval_start_day) as usize * MINUTES_PER_DAY;
        let mut seg_start = 0usize;
        while seg_start < MINUTES_PER_DAY {
            let global = day_minute0 + seg_start;
            let next_boundary = ((global / gamma_minutes) + 1) * gamma_minutes;
            let seg_end = (next_boundary - day_minute0).min(MINUTES_PER_DAY);

            // All homes advance through the segment in parallel, each
            // accumulating into its own per-home hour buckets; the fold
            // below runs in home order, exactly as the sequential
            // reference did.
            self.day_ws
                .homes
                .par_iter_mut()
                .zip(self.agents.par_iter_mut())
                .for_each(|(hw, home_agents)| run_segment(cfg, hw, home_agents, seg_end, train));
            for hw in &self.day_ws.homes {
                for h in 0..24 {
                    self.hourly_saved[h] += hw.saved[h];
                    self.hourly_standby[h] += hw.standby[h];
                }
            }

            // Federation at the boundary (if the day is not over early).
            if seg_end < MINUTES_PER_DAY || next_boundary == day_minute0 + MINUTES_PER_DAY {
                self.fed_round += 1;
                federate(
                    &mut self.agents,
                    federation,
                    &self.bus,
                    &self.cloud,
                    self.fed_round,
                    &policy,
                    &mut self.fed_engine,
                    self.hier.as_mut(),
                    participants,
                );
            }
            seg_start = seg_end;
        }

        // Collect the day's accounts (each env's account was reset at
        // day load, so it holds exactly this day's figures).
        for (home, hw) in self.day_ws.homes.iter().enumerate() {
            for env in hw.devices.iter().filter_map(|dd| dd.env.as_ref()) {
                day_account.merge(env.account());
                if day >= late_start {
                    self.per_home_late[home].merge(env.account());
                }
            }
        }
        self.total.merge(&day_account);
        self.daily_saved_fraction
            .push(day_account.saved_fraction().unwrap_or(0.0));
        self.daily_saved_kwh_per_client
            .push(day_account.standby_saved_kwh / n as f64);

        // Fleet mean train loss for the day (home order, so the float
        // sum is deterministic). NaN flags a day with any non-finite
        // batch loss for the divergence supervisor.
        let mut loss_sum = 0.0f64;
        let mut loss_steps = 0u64;
        let mut nonfinite = 0u32;
        for hw in &self.day_ws.homes {
            loss_sum += hw.loss_sum;
            loss_steps += hw.loss_steps;
            nonfinite += hw.nonfinite_losses;
        }
        let mean_loss = if nonfinite > 0 {
            f64::NAN
        } else if loss_steps == 0 {
            0.0
        } else {
            loss_sum / loss_steps as f64
        };
        self.daily_mean_loss.push(mean_loss);
        self.next_day = day + 1;
    }

    /// Whether the just-completed day diverged under the configured
    /// supervision policy: its fleet mean loss is non-finite, or it
    /// exceeds `explode_factor` × the trailing-window mean. A pure
    /// function of snapshotted state, so a resumed run reaches the
    /// exact same verdicts as the uninterrupted one.
    pub fn last_day_diverged(&self, cfg: &SimConfig) -> bool {
        let sup = &cfg.supervision;
        if !sup.is_active() {
            return false;
        }
        let losses = &self.daily_mean_loss;
        let Some(&cur) = losses.last() else {
            return false;
        };
        if !cur.is_finite() {
            return true;
        }
        // Baseline on the finite, nonzero window entries (zero means a
        // day without gradient steps — warmup or a frozen re-run — and
        // carries no loss-scale information).
        let n = losses.len() - 1;
        let window = &losses[n.saturating_sub(sup.window_days as usize)..n];
        let mut sum = 0.0f64;
        let mut count = 0u32;
        for &v in window {
            if v.is_finite() && v > 0.0 {
                sum += v;
                count += 1;
            }
        }
        count > 0 && cur > sup.explode_factor * (sum / count as f64)
    }

    /// Folds the accumulated state into the phase result.
    pub fn into_phase(self, cfg: &SimConfig, train_wall_s: f64) -> EmsPhase {
        let n = cfg.n_residences;
        // Under Hierarchical the LAN traffic lives on the shard buses
        // (plus the synthetic aggregator links); the flat bus is idle.
        let (hier_bytes, hier_logical, hier_s) = self
            .hier
            .as_ref()
            .map(|h| {
                let s = h.total_stats();
                (s.bytes, s.logical_bytes, h.simulated_seconds())
            })
            .unwrap_or((0, 0, 0.0));
        let comm_bytes = self.bus.stats().bytes
            + hier_bytes
            + self.cloud.stats().upload_bytes
            + self.cloud.stats().download_bytes;
        // Downloads always travel raw (the server ships the dense
        // global model), so they count equally on both sides.
        let comm_logical_bytes = self.bus.stats().logical_bytes
            + hier_logical
            + self.cloud.stats().logical_upload_bytes
            + self.cloud.stats().download_bytes;
        let comm_s = self.bus.simulated_seconds() + hier_s + self.cloud.simulated_seconds();
        EmsPhase {
            account: self.total,
            daily_saved_fraction: self.daily_saved_fraction,
            daily_saved_kwh_per_client: self.daily_saved_kwh_per_client,
            hourly_saved_kwh_per_client: self.hourly_saved.iter().map(|v| v / n as f64).collect(),
            hourly_standby_kwh_per_client: self
                .hourly_standby
                .iter()
                .map(|v| v / n as f64)
                .collect(),
            per_home_saved_fraction: self
                .per_home_late
                .iter()
                .map(|a| a.saved_fraction().unwrap_or(0.0))
                .collect(),
            per_home_saved_kwh: self
                .per_home_late
                .iter()
                .map(|a| a.standby_saved_kwh)
                .collect(),
            train_wall_s,
            comm_s,
            comm_bytes,
            comm_logical_bytes,
            imputed_minutes: self.imputed_minutes,
            health_transitions: self.health_transitions,
            quarantined_home_days: self.quarantined_home_days,
            rollbacks: self.rollbacks,
            // Only expose the loss history when it is also snapshotted
            // (see the field doc on `EmsPhase::daily_mean_loss`).
            daily_mean_loss: if Self::health_active(cfg) {
                self.daily_mean_loss
            } else {
                Vec::new()
            },
        }
    }

    /// Whether any hostile-telemetry feature is on — and with it the
    /// snapshot's optional HEALTH section.
    fn health_active(cfg: &SimConfig) -> bool {
        cfg.sensor_fault.is_active() || cfg.supervision.is_active()
    }

    /// Exports the health machines + supervision counters as a snapshot
    /// HEALTH section. [`EmsState::to_snapshot`] emits this only when a
    /// hostile-telemetry feature is configured; the serve loop always
    /// runs the health machine and fills the section unconditionally.
    pub fn export_health(&self) -> HealthSection {
        HealthSection {
            per_home: self
                .health
                .iter()
                .map(|h| HomeHealthRecord {
                    state: match h.state {
                        HealthState::Healthy => 0,
                        HealthState::Degraded => 1,
                        HealthState::Quarantined => 2,
                    },
                    dirty_days: h.dirty_days,
                    clean_days: h.clean_days,
                })
                .collect(),
            imputed_minutes: self.imputed_minutes,
            health_transitions: self.health_transitions,
            quarantined_home_days: self.quarantined_home_days,
            rollbacks: self.rollbacks,
            daily_mean_loss: self.daily_mean_loss.clone(),
        }
    }

    /// One federation round outside the batch day loop, for callers
    /// that own the schedule (the serve loop fires this at simulated
    /// day boundaries). Quarantined homes are withheld from uploads
    /// exactly as in [`EmsState::advance_day`]; the round counter
    /// advances so bus/cloud arrival bookkeeping stays consistent.
    pub fn federate_now(&mut self, cfg: &SimConfig, method: EmsMethod) {
        let federation = method.drl_federation(cfg.alpha);
        if federation == DrlFederation::None {
            return;
        }
        let policy = cfg.fault.merge_policy();
        let any_quarantined = self.health.iter().any(HomeHealth::quarantined);
        self.participants.clear();
        if any_quarantined {
            self.participants
                .extend(self.health.iter().map(|h| !h.quarantined()));
        }
        let participants: Option<&[bool]> = if any_quarantined {
            Some(&self.participants)
        } else {
            None
        };
        self.fed_round += 1;
        federate(
            &mut self.agents,
            federation,
            &self.bus,
            &self.cloud,
            self.fed_round,
            &policy,
            &mut self.fed_engine,
            self.hier.as_mut(),
            participants,
        );
    }

    /// Captures the complete cross-day state into a snapshot.
    pub fn to_snapshot(
        &self,
        cfg: &SimConfig,
        method: EmsMethod,
        forecast: ForecastState,
    ) -> RunSnapshot {
        RunSnapshot {
            meta: SnapshotMeta {
                config_hash: cfg.run_hash(),
                method: method.name().to_string(),
                next_day: self.next_day,
                fed_round: self.fed_round,
                n_homes: cfg.n_residences as u64,
                n_devices: cfg.devices_per_home() as u64,
            },
            forecast,
            agents: self
                .agents
                .iter()
                .map(|home| home.iter().map(DqnAgent::export_state).collect())
                .collect(),
            transport: TransportState {
                bus: self.bus.export_state(),
                cloud: self.cloud.export_state(),
            },
            metrics: MetricsState {
                total: self.total,
                daily_saved_fraction: self.daily_saved_fraction.clone(),
                daily_saved_kwh_per_client: self.daily_saved_kwh_per_client.clone(),
                hourly_saved: self.hourly_saved.to_vec(),
                hourly_standby: self.hourly_standby.to_vec(),
                per_home_late: self.per_home_late.clone(),
            },
            health: Self::health_active(cfg).then(|| self.export_health()),
            serve: None,
            shard: self.hier.as_ref().map(HierarchicalRound::export_state),
        }
    }

    /// Rebuilds the run state from a decoded snapshot, validating every
    /// shape against `cfg` before any agent is touched. Identity checks
    /// (config hash, method) belong to the caller — this function
    /// assumes they already passed and verifies structure only.
    pub fn from_snapshot(cfg: &SimConfig, snap: &RunSnapshot) -> Result<Self, StoreError> {
        let n = cfg.n_residences;
        let d = cfg.devices_per_home();
        let env_cfg = EnvConfig {
            state_window: cfg.state_window,
        };
        let state_dim = env_cfg.state_dim();

        if snap.meta.n_homes != n as u64 || snap.meta.n_devices != d as u64 {
            return Err(StoreError::State(format!(
                "snapshot is for {}x{} agents, config wants {n}x{d}",
                snap.meta.n_homes, snap.meta.n_devices
            )));
        }
        let end_day = cfg.eval_start_day + cfg.eval_days;
        if snap.meta.next_day < cfg.eval_start_day || snap.meta.next_day > end_day {
            return Err(StoreError::State(format!(
                "snapshot day {} outside evaluation span {}..={end_day}",
                snap.meta.next_day, cfg.eval_start_day
            )));
        }
        let completed = (snap.meta.next_day - cfg.eval_start_day) as usize;
        let m = &snap.metrics;
        if snap.agents.len() != n
            || snap.agents.iter().any(|home| home.len() != d)
            || m.hourly_saved.len() != 24
            || m.hourly_standby.len() != 24
            || m.per_home_late.len() != n
            || m.daily_saved_fraction.len() != completed
            || m.daily_saved_kwh_per_client.len() != completed
        {
            return Err(StoreError::State(
                "snapshot sections disagree about run dimensions".to_string(),
            ));
        }

        let mut agents: Vec<Vec<DqnAgent>> = Vec::with_capacity(n);
        for (home, home_states) in snap.agents.iter().enumerate() {
            let mut row = Vec::with_capacity(d);
            for (device, state) in home_states.iter().enumerate() {
                let mut agent = DqnAgent::new(
                    state_dim,
                    DqnConfig {
                        seed: Self::agent_seed(cfg, home, device),
                        ..cfg.dqn.clone()
                    },
                );
                agent
                    .restore_state(state)
                    .map_err(|e| StoreError::State(format!("agent [{home}][{device}]: {e}")))?;
                row.push(agent);
            }
            agents.push(row);
        }

        let bus = BroadcastBus::with_codec(n, LatencyModel::lan(), &cfg.fault, cfg.compression);
        bus.restore_state(&snap.transport.bus)
            .map_err(|e| StoreError::State(format!("bus: {e}")))?;
        let cloud = CloudAggregator::with_codec(LatencyModel::cloud(), &cfg.fault, cfg.compression);
        cloud.restore_state(&snap.transport.cloud);

        // SHARD is present exactly when the config runs hierarchically;
        // the saved assignment must match the plan the config rebuilds.
        let mut hier = Self::build_hier(cfg);
        match (&mut hier, &snap.shard) {
            (Some(h), Some(s)) => h
                .restore_state(s)
                .map_err(|e| StoreError::State(format!("shard: {e}")))?,
            (None, None) => {}
            (Some(_), None) => {
                return Err(StoreError::State(
                    "config is hierarchical but the snapshot has no shard section".to_string(),
                ))
            }
            (None, Some(_)) => {
                return Err(StoreError::State(
                    "snapshot has a shard section but the config is not hierarchical".to_string(),
                ))
            }
        }

        let mut hourly_saved = [0.0f64; 24];
        hourly_saved.copy_from_slice(&m.hourly_saved);
        let mut hourly_standby = [0.0f64; 24];
        hourly_standby.copy_from_slice(&m.hourly_standby);

        // HEALTH is present exactly when a hostile-telemetry feature is
        // active; either way the restored state must match what the
        // uninterrupted run carries at this day boundary.
        let mut health = vec![HomeHealth::default(); n];
        let mut imputed_minutes = 0;
        let mut health_transitions = 0;
        let mut quarantined_home_days = 0;
        let mut rollbacks = 0;
        let mut daily_mean_loss = Vec::with_capacity(cfg.eval_days as usize);
        if let Some(h) = &snap.health {
            if h.per_home.len() != n || h.daily_mean_loss.len() != completed {
                return Err(StoreError::State(
                    "health section disagrees about run dimensions".to_string(),
                ));
            }
            for (home, rec) in h.per_home.iter().enumerate() {
                health[home] = HomeHealth {
                    state: match rec.state {
                        0 => HealthState::Healthy,
                        1 => HealthState::Degraded,
                        2 => HealthState::Quarantined,
                        other => {
                            return Err(StoreError::State(format!(
                                "home {home}: unknown health state {other}"
                            )))
                        }
                    },
                    dirty_days: rec.dirty_days,
                    clean_days: rec.clean_days,
                };
            }
            imputed_minutes = h.imputed_minutes;
            health_transitions = h.health_transitions;
            quarantined_home_days = h.quarantined_home_days;
            rollbacks = h.rollbacks;
            daily_mean_loss.extend_from_slice(&h.daily_mean_loss);
        }

        Ok(EmsState {
            agents,
            bus,
            cloud,
            hier,
            fed_engine: DflRound::new(),
            day_ws: DayWorkspace::default(),
            fed_round: snap.meta.fed_round,
            next_day: snap.meta.next_day,
            total: m.total,
            daily_saved_fraction: m.daily_saved_fraction.clone(),
            daily_saved_kwh_per_client: m.daily_saved_kwh_per_client.clone(),
            hourly_saved,
            hourly_standby,
            per_home_late: m.per_home_late.clone(),
            health,
            imputed_minutes,
            health_transitions,
            quarantined_home_days,
            rollbacks,
            daily_mean_loss,
            participants: Vec::with_capacity(n),
        })
    }
}

/// Runs the EMS over the evaluation span.
pub fn run_ems(cfg: &SimConfig, method: EmsMethod, forecast: &ForecastPhase) -> EmsPhase {
    cfg.validate();
    let started = Instant::now();
    let mut state = EmsState::fresh(cfg);
    while !state.done(cfg) {
        state.advance_day(cfg, method, forecast);
    }
    state.into_phase(cfg, started.elapsed().as_secs_f64())
}

/// Advances one home's episodes to `seg_end`, accumulating (saved,
/// standby) kWh per hour-of-day into the workspace's own buckets
/// (`hw.saved` / `hw.standby`, zeroed here). Steady state performs no
/// heap allocation: episode states live in each device's double
/// buffer, and each step's `next` is the following step's `cur`, so
/// the agent's flat replay ring stores it once, in place.
fn run_segment(
    cfg: &SimConfig,
    hw: &mut HomeWorkspace,
    agents: &mut [DqnAgent],
    seg_end: usize,
    train: bool,
) {
    hw.saved = [0.0f64; 24];
    hw.standby = [0.0f64; 24];
    let HomeWorkspace {
        devices,
        saved,
        standby,
        loss_sum,
        loss_steps,
        nonfinite_losses,
        ..
    } = hw;
    for (device, dd) in devices.iter_mut().enumerate() {
        let Some(env) = &mut dd.env else { continue };
        let agent = &mut agents[device];
        let mut steps_since_train = 0usize;
        while !env.done() && env.current_minute() < seg_end {
            let minute = env.current_minute();
            let action = agent.act(&dd.cur);
            // Hour-of-day bookkeeping uses ground truth via the account
            // delta (standby saved only changes on standby minutes).
            let before = *env.account();
            let (reward, done) = env.step_into(action, &mut dd.next);
            let after = *env.account();
            let hour = minute / 60;
            saved[hour] += after.standby_saved_kwh - before.standby_saved_kwh;
            standby[hour] += after.standby_total_kwh - before.standby_total_kwh;
            agent.remember_step(&dd.cur, action.index(), reward, (!done).then_some(&dd.next));
            steps_since_train += 1;
            if train && steps_since_train >= cfg.train_every && agent.ready() {
                let loss = agent.train_step();
                if loss.is_finite() {
                    *loss_sum += loss;
                    *loss_steps += 1;
                } else {
                    *nonfinite_losses += 1;
                }
                steps_since_train = 0;
            }
            std::mem::swap(&mut dd.cur, &mut dd.next);
        }
    }
}

/// One federation step over every device's agents.
#[allow(clippy::too_many_arguments)]
fn federate(
    agents: &mut [Vec<DqnAgent>],
    federation: DrlFederation,
    bus: &BroadcastBus,
    cloud: &CloudAggregator,
    round: u64,
    policy: &MergePolicy,
    engine: &mut DflRound,
    hier: Option<&mut HierarchicalRound>,
    participants: Option<&[bool]>,
) {
    let d = agents[0].len();
    match federation {
        DrlFederation::CloudFull => {
            for device in 0..d {
                // Uploads go in home order, so the pending queue (and with
                // it the average order and the fault plan's per-arrival
                // decisions) is fixed. Quarantined homes upload nothing;
                // they still receive the aggregate below (downloads carry
                // healthy data). Export and import are one model copy per
                // home, too little work to pay for a thread.
                for (home, home_agents) in agents.iter().enumerate() {
                    if participants.is_none_or(|m| m[home]) {
                        cloud.upload(aggregate::snapshot_update(
                            &home_agents[device],
                            home,
                            round,
                            device as u64,
                        ));
                    }
                }
                cloud.aggregate_with_quorum(policy.min_quorum);
                for (home, row) in agents.iter_mut().enumerate() {
                    // An offline home (or a round with nothing
                    // aggregated yet) keeps its local agent.
                    if let Some(global) = cloud.download_for(home, round) {
                        row[device].import_all(&global);
                    }
                }
            }
        }
        DrlFederation::None => {}
        DrlFederation::LanAlpha(alpha) => {
            // Under Hierarchical the fleet bus is bypassed entirely: the
            // two-level engine owns per-shard buses and the top-level
            // combine. PerHome runs the per-home engine on the fleet bus.
            let mut hier = hier;
            for device in 0..d {
                let mut col: Vec<&mut DqnAgent> = agents
                    .iter_mut()
                    .map(|home_agents| &mut home_agents[device])
                    .collect();
                let p = RoundParams {
                    round,
                    model_id: device as u64,
                    alpha: Some(alpha),
                    policy,
                    participants,
                };
                match hier.as_deref_mut() {
                    Some(h) => {
                        let _ = h.run(&mut col, &p);
                    }
                    None => engine.run(&mut col, bus, &p),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecast::train_forecasters;

    fn tiny_run(method: EmsMethod) -> EmsPhase {
        let cfg = SimConfig::tiny(3);
        let forecast = train_forecasters(&cfg, method);
        run_ems(&cfg, method, &forecast)
    }

    #[test]
    fn federation_modes_match_table_2() {
        assert_eq!(EmsMethod::Local.drl_federation(6), DrlFederation::None);
        assert_eq!(EmsMethod::Cloud.drl_federation(6), DrlFederation::None);
        assert_eq!(EmsMethod::Fl.drl_federation(6), DrlFederation::None);
        assert_eq!(EmsMethod::Frl.drl_federation(6), DrlFederation::CloudFull);
        assert_eq!(
            EmsMethod::Pfdrl.drl_federation(6),
            DrlFederation::LanAlpha(6)
        );
    }

    #[test]
    fn local_ems_moves_no_bytes() {
        let phase = tiny_run(EmsMethod::Local);
        assert_eq!(phase.comm_bytes, 0);
        assert!(phase.account.minutes > 0);
        assert_eq!(phase.daily_saved_fraction.len(), 2);
    }

    #[test]
    fn pfdrl_moves_fewer_drl_bytes_than_frl() {
        let pf = tiny_run(EmsMethod::Pfdrl);
        let frl = tiny_run(EmsMethod::Frl);
        assert!(pf.comm_bytes > 0);
        assert!(frl.comm_bytes > 0);
        // With n=3 residences both transports move 6 point-to-point
        // messages per device-round (bus: 3 broadcasts x 2 deliveries;
        // cloud: 3 up + 3 down), but PFDRL's payload is only the alpha
        // base layers, so its total volume must be strictly smaller.
        assert!(
            pf.comm_bytes < frl.comm_bytes,
            "pfdrl bytes {} >= frl bytes {}",
            pf.comm_bytes,
            frl.comm_bytes
        );
    }

    #[test]
    fn saved_energy_is_bounded_by_available_standby() {
        let phase = tiny_run(EmsMethod::Pfdrl);
        assert!(phase.account.standby_saved_kwh <= phase.account.standby_total_kwh + 1e-12);
        let f = phase.account.saved_fraction().unwrap();
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn hourly_series_have_24_buckets_and_match_totals() {
        let phase = tiny_run(EmsMethod::Local);
        assert_eq!(phase.hourly_saved_kwh_per_client.len(), 24);
        assert_eq!(phase.hourly_standby_kwh_per_client.len(), 24);
        let n = 3.0;
        let hourly_total: f64 = phase.hourly_saved_kwh_per_client.iter().sum::<f64>() * n;
        assert!(
            (hourly_total - phase.account.standby_saved_kwh).abs() < 1e-9,
            "hourly {hourly_total} vs account {}",
            phase.account.standby_saved_kwh
        );
    }

    #[test]
    fn per_home_fractions_cover_every_home() {
        let phase = tiny_run(EmsMethod::Pfdrl);
        assert_eq!(phase.per_home_saved_fraction.len(), 3);
        for f in &phase.per_home_saved_fraction {
            assert!((0.0..=1.0).contains(f));
        }
    }

    #[test]
    fn span_predictions_match_full_day_bitwise() {
        // The serve loop predicts a day in arbitrary chunk spans; every
        // backend's predict_into treats rows independently, so the
        // concatenated spans must equal the one-shot full day bit for
        // bit — for the linear and the recurrent forecaster alike.
        use pfdrl_forecast::ForecastMethod;
        for fm in [ForecastMethod::Lr, ForecastMethod::Lstm] {
            let mut cfg = SimConfig::tiny(11);
            cfg.forecast_method = fm;
            let forecast = train_forecasters(&cfg, EmsMethod::Local);
            let gen = TraceGenerator::new(cfg.generator());
            let hh = gen.household(1);
            let spec = &hh.devices[0];
            let mut prev = DayTrace::default();
            let mut today = DayTrace::default();
            gen.day_trace_into(&hh, 0, 2, &mut prev);
            gen.day_trace_into(&hh, 0, 3, &mut today);

            let mut ws = PredictDayWorkspace::default();
            let mut full = Vec::new();
            predict_day_into(
                &cfg,
                forecast.models[1][0].as_ref(),
                &prev,
                &today,
                spec.on_watts,
                &mut ws,
                &mut full,
            );

            for chunk in [45usize, 60, 720, MINUTES_PER_DAY] {
                let mut out = Vec::new();
                let mut r0 = 0usize;
                while r0 < MINUTES_PER_DAY {
                    let r1 = (r0 + chunk).min(MINUTES_PER_DAY);
                    predict_span_into(
                        &cfg,
                        forecast.models[1][0].as_ref(),
                        &prev.watts,
                        &today.watts,
                        spec.on_watts,
                        r0,
                        r1,
                        &mut ws,
                        &mut out,
                    );
                    r0 = r1;
                }
                assert_eq!(out.len(), full.len());
                for (t, (a, b)) in out.iter().zip(&full).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{fm:?} chunk {chunk}: minute {t} differs"
                    );
                }
            }
        }
    }

    #[test]
    fn pfdrl_federation_preserves_personal_layers() {
        // After a run, PFDRL agents share base layers but keep distinct
        // personalization layers.
        let cfg = SimConfig::tiny(5);
        let forecast = train_forecasters(&cfg, EmsMethod::Pfdrl);
        let _ = run_ems(&cfg, EmsMethod::Pfdrl, &forecast);
        // (Agents are internal to run_ems; the property is asserted at the
        // unit level in pfdrl-fl. Here we just confirm the run completes
        // with sharing enabled — see personalization tests for the
        // layer-level invariant.)
    }
}
