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
//! federation step runs at the boundary. Every device-minute runs through
//! [`run_device_span`], the one decision loop the serve mode runs too.

use crate::config::SimConfig;
use crate::forecast::ForecastPhase;
use crate::method::EmsMethod;
use pfdrl_data::{
    impute_forward_fill, Archetype, DayTrace, HouseholdSpec, Mode, TraceGenerator, MINUTES_PER_DAY,
    WATT_CEILING,
};
use pfdrl_drl::{DqnAgent, DqnConfig};
use pfdrl_env::{DaySeries, EnergyAccount, EnvConfig};
use pfdrl_fl::{
    AggregationMode, BroadcastBus, CloudRound, DflRound, HierarchicalRound, LatencyModel,
    RoundParams, ShardPlan,
};
use pfdrl_forecast::PredictWorkspace;
use pfdrl_nn::Matrix;
use pfdrl_store::{
    ForecastState, HealthState as HealthSection, HomeHealthRecord, MetricsState, RunSnapshot,
    SnapshotMeta, StoreError, TransportState,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::ops::Range;

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

/// A home's day is dirty when at least this many device-minutes were
/// imputed across its devices.
const DIRTY_MINUTES: u32 = 30;
/// Consecutive dirty days (while Degraded) before quarantine.
const QUARANTINE_AFTER_DAYS: u32 = 2;
/// Consecutive clean days before a quarantined home is re-admitted to
/// federation uploads.
const READMIT_AFTER_DAYS: u32 = 2;

/// Per-home telemetry health machine: Healthy → Degraded on a dirty
/// day, Degraded → Quarantined after `QUARANTINE_AFTER_DAYS` (2)
/// consecutive dirty days, Quarantined → Healthy again only after
/// `READMIT_AFTER_DAYS` (2) consecutive clean days (hysteresis, so a
/// home flapping between clean and dirty stays out of the federation).
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
    pub fn observe_day(&mut self, dirty: bool) -> bool {
        let before = self.state;
        if dirty {
            self.clean_days = 0;
            if self.state != HealthState::Quarantined {
                self.dirty_days += 1;
                self.state = if self.dirty_days >= QUARANTINE_AFTER_DAYS {
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
                    if self.clean_days >= READMIT_AFTER_DAYS {
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
    /// Per-eval-day fleet mean train loss, NaN for a day with a
    /// non-finite batch loss. Only populated when sensor faults are
    /// active — it is not part of the snapshot otherwise, so exposing
    /// it would break resumed-vs-uninterrupted equality on plain runs.
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

/// Allocation-free [`predict_day`] writing into `out`: the full-day
/// span of [`predict_span_into`].
pub fn predict_day_into(
    cfg: &SimConfig,
    forecaster: &dyn pfdrl_forecast::Forecaster,
    prev_day: &DayTrace,
    today: &DayTrace,
    scale: f64,
    ws: &mut PredictDayWorkspace,
    out: &mut Vec<f64>,
) {
    out.clear();
    predict_span_into(
        cfg,
        forecaster,
        &prev_day.watts,
        &today.watts,
        scale,
        0,
        MINUTES_PER_DAY,
        ws,
        out,
    );
}

/// Predictions for the partial minute range `[r0, r1)` of a day,
/// appended to `out` (which must already hold rows `[0, r0)`).
///
/// Consecutive minutes share `window - 1` of their window elements, so
/// instead of encoding `window` values per minute this encodes the span
/// the rows' windows touch exactly once and each input row copies its
/// slice of the encoded buffer. `transform.encode` is a pure
/// per-element function and the row contents, feature order and decode
/// step are those of [`predict_day`], so the output is bit-identical
/// to it.
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
/// trace becomes tomorrow's `prev` via a swap) and the decoded
/// predictions. The kernel reads the day from here in place.
#[derive(Default)]
struct DeviceDay {
    prev: DayTrace,
    today: DayTrace,
    /// Day index `today` currently holds; drives the prev/today swap.
    loaded_day: Option<u64>,
    pred: Vec<f64>,
}

/// One home's recycled day-pipeline buffers.
#[derive(Default)]
struct HomeWorkspace {
    /// Static household description, built once (it is a pure function
    /// of the generator config).
    hh: Option<HouseholdSpec>,
    devices: Vec<DeviceDay>,
    pws: PredictDayWorkspace,
    /// Device-minutes imputed while loading the current day's traces.
    imputed_minutes: u32,
    /// The day's accounts and loss accumulators, and the current
    /// segment's hour buckets (zeroed by [`run_segment`]).
    tally: HomeTally,
}

/// One home's running tallies from [`run_device_span`]: each device's
/// energy account, (saved, standby) kWh by hour of day, and the
/// train-loss accumulators. The batch day and the serve loop each keep
/// one per home and close the day through [`EmsState::close_day`].
#[derive(Debug, Default)]
pub struct HomeTally {
    /// Per-device accounts, in device order.
    pub accounts: Vec<EnergyAccount>,
    pub saved: [f64; 24],
    pub standby: [f64; 24],
    pub loss_sum: f64,
    pub loss_steps: u64,
    pub nonfinite_losses: u32,
    /// The kernel's scratch: the states of one Q batch, one row per
    /// minute, and their Q-values.
    states: Matrix,
    q: Matrix,
    /// The state after the batch's last minute.
    next: Vec<f64>,
}

impl HomeTally {
    /// An all-zero tally for a home of `devices` devices.
    pub fn new(devices: usize) -> Self {
        let mut tally = HomeTally::default();
        tally.reset(devices);
        tally
    }

    /// Zeroes every account, bucket and accumulator for a new day,
    /// keeping the buffers.
    pub fn reset(&mut self, devices: usize) {
        self.accounts.clear();
        self.accounts.resize(devices, EnergyAccount::new());
        self.saved = [0.0; 24];
        self.standby = [0.0; 24];
        self.loss_sum = 0.0;
        self.loss_steps = 0;
        self.nonfinite_losses = 0;
    }
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
/// [`EmsState::advance_day`] at a time; normal callers use the runners
/// in [`crate::runner`].
pub struct EmsState {
    pub agents: Vec<Vec<DqnAgent>>,
    pub bus: BroadcastBus,
    /// The FRL server. One engine serves every device column, so its
    /// counters run on across devices and rounds.
    pub cloud: CloudRound,
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
    /// tallies, episode states). Pure transient workspace — like
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
    /// Per-completed-day fleet mean train loss; NaN marks a day that
    /// produced any non-finite batch loss.
    pub daily_mean_loss: Vec<f64>,
    /// Reusable upload-participation mask (transient scratch; rebuilt
    /// from `health` every day, never snapshotted).
    participants: Vec<bool>,
}

impl EmsState {
    /// Day-zero state with freshly seeded agents and empty transports.
    pub fn fresh(cfg: &SimConfig) -> Self {
        let n = cfg.n_residences;
        let d = cfg.devices_per_home();

        // One DQN per home-device pair.
        let agents: Vec<Vec<DqnAgent>> = (0..n)
            .map(|home| {
                (0..d)
                    .map(|device| Self::new_agent(cfg, home, device))
                    .collect()
            })
            .collect();

        EmsState {
            agents,
            // Federation transports, routed through the configured fault
            // plan (inert when cfg.fault is fault-free).
            bus: BroadcastBus::with_codec(n, LatencyModel::lan(), &cfg.fault, cfg.compression),
            cloud: CloudRound::new(LatencyModel::cloud(), &cfg.fault, cfg.compression),
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

    /// The freshly seeded DQN of one home-device pair.
    fn new_agent(cfg: &SimConfig, home: usize, device: usize) -> DqnAgent {
        let seed = cfg
            .seed
            .wrapping_mul(0xC2B2_AE35)
            .wrapping_add((home as u64) << 13)
            .wrapping_add(device as u64);
        let state_window = cfg.state_window;
        DqnAgent::new(
            EnvConfig { state_window }.state_dim(),
            DqnConfig {
                seed,
                ..cfg.dqn.clone()
            },
        )
    }

    /// Whether every evaluation day has been executed.
    pub fn done(&self, cfg: &SimConfig) -> bool {
        self.next_day >= cfg.eval_start_day + cfg.eval_days
    }

    /// Executes one evaluation day (`self.next_day`): loads the day's
    /// traces and predictions, walks the γ-aligned segments with
    /// federation at each boundary, and closes the day into the
    /// accumulators.
    pub fn advance_day(&mut self, cfg: &SimConfig, method: EmsMethod, forecast: &ForecastPhase) {
        let day = self.next_day;
        let gen = TraceGenerator::new(cfg.generator());
        let n = cfg.n_residences;
        let d = cfg.devices_per_home();
        let federation = method.drl_federation(cfg.alpha);
        let gamma_minutes = ((cfg.gamma_hours * 60.0).round() as usize).max(1);

        // Sensor-fault plan: pure hash decisions per (home, device, day,
        // minute), so the corrupted stream is identical whether a trace
        // arrives via the prev/today swap or is regenerated after a
        // resume. Inactive plans skip both passes entirely, keeping the
        // fault-free pipeline bit-identical byte for byte.
        let plan = cfg.sensor_fault.plan();
        let faults_on = cfg.sensor_fault.is_active();

        // Load the day's traces and predictions, per home, into the
        // recycled workspaces. The workspace is taken out of `self` for
        // the day so the folds below can borrow both.
        let mut ws = std::mem::take(&mut self.day_ws);
        ws.ensure_shape(n, d);
        ws.homes.par_iter_mut().enumerate().for_each(|(home, hw)| {
            let HomeWorkspace {
                hh,
                devices,
                pws,
                imputed_minutes,
                tally,
            } = hw;
            *imputed_minutes = 0;
            tally.reset(d);
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
                        // Reproduce yesterday's corruption + repair so
                        // the regenerated prev matches what the swap
                        // path would carry. Yesterday's repairs were
                        // already counted when yesterday ran.
                        plan.corrupt_day(home as u64, device as u64, day - 1, &mut dd.prev.watts);
                        impute_forward_fill(&mut dd.prev.watts, WATT_CEILING, 0.0);
                    }
                }
                gen.day_trace_into(hh, device, day, &mut dd.today);
                if faults_on {
                    plan.corrupt_day(home as u64, device as u64, day, &mut dd.today.watts);
                    *imputed_minutes += impute_forward_fill(&mut dd.today.watts, WATT_CEILING, 0.0);
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
            }
        });

        // Today's dirt decides today's federation participation: a home
        // whose stream needed heavy repair this morning does not upload
        // tonight.
        if faults_on {
            self.observe_health(ws.homes.iter().map(|hw| hw.imputed_minutes));
            self.count_quarantined();
        }

        // Walk the day in γ-aligned segments.
        let day_minute0 = (day - cfg.eval_start_day) as usize * MINUTES_PER_DAY;
        let mut seg_start = 0usize;
        while seg_start < MINUTES_PER_DAY {
            let global = day_minute0 + seg_start;
            let next_boundary = ((global / gamma_minutes) + 1) * gamma_minutes;
            let seg_end = (next_boundary - day_minute0).min(MINUTES_PER_DAY);

            // All homes advance through the segment in parallel, each
            // into its own hour buckets; the fold runs in home order.
            ws.homes
                .par_iter_mut()
                .zip(self.agents.par_iter_mut())
                .for_each(|(hw, agents)| run_segment(cfg, hw, agents, seg_start..seg_end));
            self.fold_hours(ws.homes.iter().map(|hw| &hw.tally));

            // Federation at the boundary (if the day is not over early).
            if seg_end < MINUTES_PER_DAY || next_boundary == day_minute0 + MINUTES_PER_DAY {
                self.federate_round(federation);
            }
            seg_start = seg_end;
        }

        self.close_day(cfg, ws.homes.iter().map(|hw| &hw.tally));
        self.day_ws = ws;
    }

    /// Feeds one completed day's imputed-minute counts, one per home in
    /// home order, through the health machines: a day with at least
    /// `DIRTY_MINUTES` (30) imputed device-minutes is dirty.
    pub fn observe_health(&mut self, imputed: impl IntoIterator<Item = u32>) {
        for (health, minutes) in self.health.iter_mut().zip(imputed) {
            self.imputed_minutes += minutes as u64;
            if health.observe_day(minutes >= DIRTY_MINUTES) {
                self.health_transitions += 1;
            }
        }
    }

    /// Counts a day of every quarantined home into
    /// `quarantined_home_days`.
    pub fn count_quarantined(&mut self) {
        self.quarantined_home_days += self.health.iter().filter(|h| h.quarantined()).count() as u64;
    }

    /// Adds each home's hour buckets, in home order, into the run's.
    pub fn fold_hours<'a>(&mut self, tallies: impl IntoIterator<Item = &'a HomeTally>) {
        for tally in tallies {
            for h in 0..24 {
                self.hourly_saved[h] += tally.saved[h];
                self.hourly_standby[h] += tally.standby[h];
            }
        }
    }

    /// Closes day `next_day` from each home's tally, in home order:
    /// merges every device account into the day's account and, over the
    /// last third of the evaluation days, the home's late account;
    /// pushes the day's saved fraction, saved kWh per client and fleet
    /// mean train loss (NaN if any batch loss was non-finite); and
    /// moves `next_day` on.
    pub fn close_day<'a>(
        &mut self,
        cfg: &SimConfig,
        tallies: impl IntoIterator<Item = &'a HomeTally>,
    ) {
        let day = self.next_day;
        let late_start = cfg.eval_start_day + cfg.eval_days - cfg.eval_days.div_ceil(3);
        let mut day_account = EnergyAccount::new();
        let (mut loss_sum, mut loss_steps, mut nonfinite) = (0.0f64, 0u64, 0u32);
        for (home, tally) in tallies.into_iter().enumerate() {
            for account in &tally.accounts {
                day_account.merge(account);
                if day >= late_start {
                    self.per_home_late[home].merge(account);
                }
            }
            loss_sum += tally.loss_sum;
            loss_steps += tally.loss_steps;
            nonfinite += tally.nonfinite_losses;
        }
        self.total.merge(&day_account);
        self.daily_saved_fraction
            .push(day_account.saved_fraction().unwrap_or(0.0));
        self.daily_saved_kwh_per_client
            .push(day_account.standby_saved_kwh / cfg.n_residences as f64);
        self.daily_mean_loss.push(if nonfinite > 0 {
            f64::NAN
        } else if loss_steps == 0 {
            0.0
        } else {
            loss_sum / loss_steps as f64
        });
        self.next_day = day + 1;
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
        // mean), so they count equally on both sides.
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
            // Only expose the loss history when it is also snapshotted
            // (see the field doc on `EmsPhase::daily_mean_loss`).
            daily_mean_loss: if Self::health_active(cfg) {
                self.daily_mean_loss
            } else {
                Vec::new()
            },
        }
    }

    /// Whether sensor faults are on — and with them the snapshot's
    /// optional HEALTH section.
    fn health_active(cfg: &SimConfig) -> bool {
        cfg.sensor_fault.is_active()
    }

    /// Exports the health machines, their counters and the daily loss
    /// history as a snapshot HEALTH section. [`EmsState::to_snapshot`]
    /// emits this only when sensor faults are configured; the serve
    /// loop always runs the health machine and fills the section
    /// unconditionally.
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
        if federation != DrlFederation::None {
            self.federate_round(federation);
        }
    }

    /// Advances the round counter and runs one round of `federation`
    /// per device column, in device order, withholding quarantined
    /// homes' uploads.
    fn federate_round(&mut self, federation: DrlFederation) {
        self.fed_round += 1;
        let alpha = match federation {
            DrlFederation::None => return,
            DrlFederation::CloudFull => None,
            DrlFederation::LanAlpha(alpha) => Some(alpha),
        };
        let any_quarantined = self.health.iter().any(HomeHealth::quarantined);
        self.participants.clear();
        if any_quarantined {
            self.participants
                .extend(self.health.iter().map(|h| !h.quarantined()));
        }
        for device in 0..self.agents[0].len() {
            let mut col: Vec<&mut DqnAgent> = self
                .agents
                .iter_mut()
                .map(|home_agents| &mut home_agents[device])
                .collect();
            let p = RoundParams {
                round: self.fed_round,
                model_id: device as u64,
                alpha,
                participants: any_quarantined.then_some(&self.participants[..]),
            };
            // FRL federates through the cloud server. PFDRL runs the
            // two-level engine under Hierarchical (its per-shard buses
            // bypass the fleet bus entirely), else the per-home engine
            // on the fleet bus.
            match (federation, self.hier.as_mut()) {
                (DrlFederation::CloudFull, _) => {
                    let _ = self.cloud.run(&mut col, &p);
                }
                (_, Some(h)) => {
                    let _ = h.run(&mut col, &p);
                }
                (_, None) => self.fed_engine.run(&mut col, &mut self.bus, &p),
            }
        }
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
                cloud: self.cloud.stats(),
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
                let mut agent = Self::new_agent(cfg, home, device);
                agent
                    .restore_state(state)
                    .map_err(|e| StoreError::State(format!("agent [{home}][{device}]: {e}")))?;
                row.push(agent);
            }
            agents.push(row);
        }

        let mut bus = BroadcastBus::with_codec(n, LatencyModel::lan(), &cfg.fault, cfg.compression);
        bus.restore_state(&snap.transport.bus)
            .map_err(|e| StoreError::State(format!("bus: {e}")))?;
        let mut cloud = CloudRound::new(LatencyModel::cloud(), &cfg.fault, cfg.compression);
        cloud.restore_stats(snap.transport.cloud);

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

        // HEALTH is present whenever sensor faults are active (serve
        // writes it always); the restored state must match
        // what the uninterrupted run carries at this day boundary.
        let mut health = vec![HomeHealth::default(); n];
        let mut imputed_minutes = 0;
        let mut health_transitions = 0;
        let mut quarantined_home_days = 0;
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
            daily_mean_loss.extend_from_slice(&h.daily_mean_loss);
        } else if Self::health_active(cfg) {
            return Err(StoreError::State(
                "config runs the health machines but the snapshot has no health section"
                    .to_string(),
            ));
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
            daily_mean_loss,
            participants: Vec::with_capacity(n),
        })
    }
}

/// Advances one home's devices through the segment `minutes` of the
/// day loaded into its workspace, each with a train cadence that
/// restarts at the segment start. The hour buckets are zeroed first,
/// so they hold this segment's kWh for the caller's fold.
fn run_segment(
    cfg: &SimConfig,
    hw: &mut HomeWorkspace,
    agents: &mut [DqnAgent],
    minutes: Range<usize>,
) {
    let HomeWorkspace {
        hh: Some(hh),
        devices,
        tally,
        ..
    } = hw
    else {
        return;
    };
    tally.saved = [0.0; 24];
    tally.standby = [0.0; 24];
    for (device, (dd, spec)) in devices.iter().zip(&hh.devices).enumerate() {
        if !spec.controllable {
            continue;
        }
        let day = DaySeries {
            spec,
            pred: &dd.pred,
            watts: &dd.today.watts,
            modes: &dd.today.modes,
        };
        let mut steps_since_train = 0;
        run_device_span(
            cfg,
            &mut agents[device],
            day,
            minutes.clone(),
            true,
            &mut steps_since_train,
            tally,
            device,
            |_, _, _| {},
        );
    }
}

/// Most minutes one Q batch of [`run_device_span`] covers: a span that
/// does not train has no gradient step to end its batches.
const MAX_Q_BATCH: usize = 64;

/// Minutes the next Q batch covers from the current one: through the
/// first minute at which a gradient step can run, since the weights
/// change only there, and never more than one training cadence, so a
/// batch's buffers stay at their steady size. A step runs at the
/// batch's `r`-th minute only once `r + 1` stores have warmed the agent
/// and `steps_since_train + r + 1` has reached `train_every`.
fn q_batch_rows(cfg: &SimConfig, agent: &DqnAgent, train: bool, steps_since_train: u64) -> usize {
    if !train {
        return MAX_Q_BATCH;
    }
    let to_cadence = (cfg.train_every as u64).saturating_sub(steps_since_train) as usize;
    let cadence = cfg.train_every.clamp(1, MAX_Q_BATCH);
    agent.warmup_remaining().max(to_cadence).clamp(1, cadence)
}

/// The EMS's device-minute loop (§3.3.1), the one both the batch day
/// and the serve loop run: walks device `device` over the minutes of
/// `minutes` that can be decided (from `state_window` on). Per minute it
/// encodes the state, lets the agent act, settles the action against
/// the real mode (Table 1 reward and the device's account in `tally`),
/// adds the minute's saved and standby kWh to its hour bucket, reports
/// `(minute, action, reward)` to `decided`, stores the transition
/// (terminal on the day's last minute), and takes a gradient step when
/// `train` is set, `steps_since_train` has reached `cfg.train_every`
/// and the agent is warm.
///
/// The states are exogenous (forecast, readings and real modes), so
/// the kernel encodes every minute up to the next possible gradient
/// step at once (at most one cadence of minutes, or 64 when the span
/// does not train) and takes their Q-values in one inference
/// ([`DqnAgent::q_batch`]); each minute then acts from its row
/// ([`DqnAgent::act_with_q`]) with the ε draw `act` would make, which
/// gives `act`'s actions bit for bit.
///
/// A span may stop anywhere: the next span re-encodes its first state
/// from the same series, so cutting a day into spans, with the cadence
/// counter carried across the cuts, gives the uncut day's bits.
/// Steady state performs no heap allocation: each step's `s_{t+1}` is
/// the next step's `s_t`, so the agent's flat replay ring stores it
/// once, in place.
#[allow(clippy::too_many_arguments)]
pub fn run_device_span(
    cfg: &SimConfig,
    agent: &mut DqnAgent,
    day: DaySeries<'_>,
    minutes: Range<usize>,
    train: bool,
    steps_since_train: &mut u64,
    tally: &mut HomeTally,
    device: usize,
    mut decided: impl FnMut(usize, Mode, f64),
) {
    let window = cfg.state_window;
    let first = minutes.start.max(window);
    if first >= minutes.end {
        return;
    }
    let HomeTally {
        accounts,
        saved,
        standby,
        loss_sum,
        loss_steps,
        nonfinite_losses,
        states,
        q,
        next,
    } = tally;
    let account = &mut accounts[device];
    day.state_into(window, first, next);
    let mut t0 = first;
    while t0 < minutes.end {
        let rows = q_batch_rows(cfg, agent, train, *steps_since_train).min(minutes.end - t0);
        states.resize(rows, next.len());
        states.row_mut(0).copy_from_slice(next);
        for r in 1..rows {
            day.state_row_into(window, t0 + r, states.row_mut(r));
        }
        let batch_q = agent.q_batch(states);
        q.resize(batch_q.rows(), batch_q.cols());
        q.as_mut_slice().copy_from_slice(batch_q.as_slice());
        for (r, t) in (t0..t0 + rows).enumerate() {
            let action = agent.act_with_q(q.row(r));
            let before = *account;
            let reward = day.settle(t, action, account);
            let hour = t / 60;
            saved[hour] += account.standby_saved_kwh - before.standby_saved_kwh;
            standby[hour] += account.standby_total_kwh - before.standby_total_kwh;
            decided(t, action, reward);
            let next_state = if t + 1 == day.watts.len() {
                None
            } else if r + 1 < rows {
                Some(states.row(r + 1))
            } else {
                day.state_into(window, t + 1, next);
                Some(&next[..])
            };
            agent.remember_step(states.row(r), action.index(), reward, next_state);
            *steps_since_train += 1;
            if train && *steps_since_train >= cfg.train_every as u64 && agent.ready() {
                debug_assert_eq!(r + 1, rows, "a gradient step inside a Q batch");
                let loss = agent.train_step();
                if loss.is_finite() {
                    *loss_sum += loss;
                    *loss_steps += 1;
                } else {
                    *nonfinite_losses += 1;
                }
                *steps_since_train = 0;
            }
        }
        t0 += rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecast::train_forecasters;

    fn tiny_run(method: EmsMethod) -> EmsPhase {
        crate::runner::run_method(&SimConfig::tiny(3), method).ems
    }

    #[test]
    fn q_batches_end_at_the_first_possible_gradient_step() {
        // Replays the kernel's train condition store by store from every
        // warm-up depth and cadence phase: a batch must end at the first
        // minute that can train, or at one cadence of minutes.
        let cfg = SimConfig::tiny(1);
        let threshold = cfg.dqn.warmup.max(cfg.dqn.batch);
        let state = vec![0.5; 4];
        let mut agent = DqnAgent::new(state.len(), cfg.dqn.clone());
        for stored in 0..threshold + 3 {
            for train_every in [1, 2, 5, 8] {
                let cfg = SimConfig {
                    train_every,
                    ..cfg.clone()
                };
                for since in 0..train_every as u64 + 2 {
                    let first_step = (1..)
                        .find(|&n| {
                            stored + n >= threshold && since + n as u64 >= train_every as u64
                        })
                        .unwrap();
                    assert_eq!(
                        q_batch_rows(&cfg, &agent, true, since),
                        first_step.min(train_every),
                        "{stored} stored, every {train_every}, {since} since the last step"
                    );
                }
                assert_eq!(q_batch_rows(&cfg, &agent, false, 0), MAX_Q_BATCH);
            }
            agent.remember_step(&state, 0, 0.0, Some(&state));
        }
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
        // The run's last γ boundary ends the last day and federates, so
        // afterwards every home holds the same base layers (Eq. 7) and
        // its own personalization layers (Eq. 8).
        use pfdrl_nn::Layered;
        let cfg = SimConfig::tiny(5);
        let forecast = train_forecasters(&cfg, EmsMethod::Pfdrl);
        let mut state = EmsState::fresh(&cfg);
        while !state.done(&cfg) {
            state.advance_day(&cfg, EmsMethod::Pfdrl, &forecast);
        }
        for device in 0..cfg.devices_per_home() {
            let homes: Vec<Vec<Vec<f64>>> = state
                .agents
                .iter()
                .map(|agents| agents[device].export_all())
                .collect();
            for (home, layers) in homes.iter().enumerate().skip(1) {
                for l in 0..cfg.alpha {
                    for (a, b) in homes[0][l].iter().zip(&layers[l]) {
                        assert!(
                            (a - b).abs() < 1e-12,
                            "device {device}: base layer {l} of home {home} drifted: {a} vs {b}"
                        );
                    }
                }
            }
            assert!(
                (cfg.alpha..homes[0].len()).any(|l| homes.iter().any(|h| h[l] != homes[0][l])),
                "device {device}: every personalization layer is shared"
            );
        }
    }
}
