//! The streaming serve engine.
//!
//! An event-driven scheduler over *simulated* minutes: telemetry
//! records arrive from a [`TelemetrySource`], are sharded into bounded
//! ingress queues, and are applied to per-home day buffers whenever a
//! chunk of minutes closes. At each chunk close the engine repairs the
//! arrived readings (forward-fill, exactly the batch pipeline's
//! `impute_forward_fill` semantics), extends the day's forecast with
//! the zero-alloc [`predict_span_into`] kernel, and walks every
//! healthy home's devices through [`run_device_span`], the batch EMS's
//! own device-minute kernel, emitting one [`DecisionRecord`] per
//! controllable device-minute to a [`DecisionSink`].
//!
//! # Determinism
//!
//! Everything is keyed to the simulated-minute cursor — there is no
//! wall-clock anywhere in the state path — so the same input stream
//! produces bit-identical decision logs and snapshots run-to-run, for
//! any shard count, chunk size or queue capacity. Mid-day snapshots
//! (the `SERVE` section) capture the full live state, and a resumed
//! engine fast-forwards the source by `lines_consumed` lines, so a
//! kill + resume replays into byte-identical output.
//!
//! # Divergences from the batch pipeline (the serve contract)
//!
//! Serve differs from the batch day only in what it hands the kernel
//! and when it folds. The batch EMS knows each minute's ground-truth
//! mode; a stream carries watts only, so serve passes the modes it
//! classifies once per repaired minute. Its train cadence counter lives
//! for the day, carried across chunk closes, instead of restarting per
//! segment, and a callback logs each decision. Quarantined homes are
//! *shed from inference* (no decisions, no training — counted in
//! `quarantined_shed`), where batch only withholds their uploads.
//! Health observes a day's dirt at day *close* (the stream is only
//! fully known then), so a day's quarantine verdict gates the
//! federation round that same night and inference from the next day
//! on. Federation fires once per day boundary, not per γ-segment, and
//! the hour buckets fold once per day.

use crate::queue::BoundedQueue;
use crate::record::{format_decision, parse_telemetry, DecisionRecord, TelemetryRecord};
use crate::sink::{DecisionSink, SinkStatus};
use crate::source::TelemetrySource;
use pfdrl_core::{
    predict_span_into, run_device_span, EmsMethod, EmsState, ForecastPhase, HomeTally,
    PredictDayWorkspace, SimConfig,
};
use pfdrl_data::{DeviceSpec, HouseholdSpec, Mode, TraceGenerator, MINUTES_PER_DAY, WATT_CEILING};
use pfdrl_drl::DqnAgent;
use pfdrl_env::{classify, DaySeries};
use pfdrl_fl::MinuteSchedule;
use pfdrl_forecast::Forecaster;
use pfdrl_store::{
    CheckpointStore, RunSnapshot, ServeDeviceState, ServeHomeState, ServeState, StoreError,
};
use rayon::prelude::*;
use serde::Serialize;
use std::ops::Range;
use std::time::Instant;

/// Knobs of the serve loop. Deliberately separate from [`SimConfig`]:
/// none of these change what is computed — only how ingestion is
/// scheduled — so they are excluded from `run_hash` and the decision
/// log is byte-invariant to all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Simulated minutes per processing chunk; must divide 1440.
    pub chunk_minutes: usize,
    /// Snapshot every K simulated minutes (0 = final snapshot only).
    pub snapshot_every_minutes: u64,
    /// Ingress shards (`home % n_shards` routing).
    pub n_shards: usize,
    /// Per-shard ingress queue bound, in records.
    pub queue_capacity: usize,
    /// Whether agents take gradient steps while serving.
    pub train: bool,
    /// Abort the process right after the first chunk close at or past
    /// this simulated minute (after its snapshot) — the crash hook the
    /// kill-and-resume tests and the CI smoke job use.
    pub abort_after_minute: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            chunk_minutes: 60,
            snapshot_every_minutes: MINUTES_PER_DAY as u64,
            n_shards: 4,
            queue_capacity: 4096,
            train: true,
            abort_after_minute: None,
        }
    }
}

impl ServeConfig {
    /// # Panics
    /// Panics on an invalid combination (zero/non-dividing chunk, zero
    /// shards or queue capacity).
    pub fn validate(&self) {
        assert!(
            self.chunk_minutes >= 1 && MINUTES_PER_DAY.is_multiple_of(self.chunk_minutes),
            "chunk_minutes must divide {MINUTES_PER_DAY}, got {}",
            self.chunk_minutes
        );
        assert!(self.n_shards >= 1, "n_shards must be positive");
        assert!(self.queue_capacity >= 1, "queue_capacity must be positive");
    }
}

/// Counters of everything the engine did besides deciding. Every shed
/// class is explicit and typed — nothing is silently dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ServeCounters {
    /// Decisions emitted.
    pub decisions: u64,
    /// Records shed: minute older than the ingest cursor.
    pub shed_stale: u64,
    /// Records shed: minute outside the serving span.
    pub shed_out_of_span: u64,
    /// Records shed: home id outside the fleet.
    pub shed_unknown_home: u64,
    /// Records shed: unparseable line or wrong device count.
    pub shed_malformed: u64,
    /// Early shard drains forced by a full ingress queue.
    pub rejected_backpressure: u64,
    /// Sink busy-retries absorbed by the emit loop.
    pub sink_retries: u64,
    /// Device-minutes synthesized for minutes that never arrived.
    pub gap_imputed: u64,
    /// Device-minutes whose delivered value failed validation.
    pub repaired_values: u64,
    /// Decisions suppressed because the home was quarantined.
    pub quarantined_shed: u64,
}

/// What one serve run did, for the CLI's `--json` contract and the
/// throughput bench. Wall-clock figures are informational only — no
/// state depends on them.
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    pub config_hash: u64,
    pub method: String,
    /// Simulated minutes actually served (cursor − span start).
    pub served_minutes: u64,
    /// Full days folded into the day-boundary metrics.
    pub completed_days: u64,
    pub decisions: u64,
    pub wall_s: f64,
    pub decisions_per_sec: f64,
    /// Mean / final `daily_saved_fraction` over completed days.
    pub mean_saved_fraction: f64,
    pub final_saved_fraction: f64,
    pub resumed_from_minute: Option<u64>,
    pub fed_rounds: u64,
    pub snapshots_written: u64,
    pub max_queue_len: u64,
    pub counters: ServeCounters,
}

/// Serve-loop failure.
#[derive(Debug)]
pub enum ServeError {
    Io(std::io::Error),
    Store(StoreError),
    Config(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve i/o: {e}"),
            ServeError::Store(e) => write!(f, "serve store: {e}"),
            ServeError::Config(msg) => write!(f, "serve config: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// One device's live buffers. `today` always holds 1440 slots (raw
/// values land there at drain, the repair scan rewrites them in
/// place) and `modes` their classes once repaired; `prev` is empty
/// during the priming day and a full repaired day afterwards; `pred`
/// grows chunk by chunk through the day.
struct DeviceLive {
    prev: Vec<f64>,
    today: Vec<f64>,
    modes: Vec<Mode>,
    pred: Vec<f64>,
    /// Forward-fill seed, reset to 0.0 at each day start (mirroring
    /// `impute_forward_fill`'s leading-gap fallback).
    last_good: f64,
    steps_since_train: u64,
}

impl DeviceLive {
    fn fresh() -> Self {
        DeviceLive {
            prev: Vec::new(),
            today: vec![0.0; MINUTES_PER_DAY],
            modes: vec![Mode::Off; MINUTES_PER_DAY],
            pred: Vec::new(),
            last_good: 0.0,
            steps_since_train: 0,
        }
    }

    /// Extends the day's forecast to cover the decisions of a chunk
    /// ending at `c1` plus the successor state at `c1` (the last
    /// minute's transition looks one row ahead).
    fn predict_through(
        &mut self,
        cfg: &SimConfig,
        model: &dyn Forecaster,
        spec: &DeviceSpec,
        c1: usize,
        pws: &mut PredictDayWorkspace,
    ) {
        let target = (c1 + 1).min(MINUTES_PER_DAY);
        if self.pred.len() < target {
            let r0 = self.pred.len();
            predict_span_into(
                cfg,
                model,
                &self.prev,
                &self.today,
                spec.on_watts,
                r0,
                target,
                pws,
                &mut self.pred,
            );
        }
    }

    /// Classifies the repaired readings of `minutes` into `modes`.
    fn classify(&mut self, spec: &DeviceSpec, minutes: Range<usize>) {
        for (mode, &w) in self.modes[minutes.clone()]
            .iter_mut()
            .zip(&self.today[minutes])
        {
            *mode = classify(spec, w);
        }
    }
}

/// One home's live serve state plus its recycled scratch buffers.
struct HomeLive {
    home: usize,
    hh: HouseholdSpec,
    /// Which minutes of today a record arrived for.
    present: Vec<bool>,
    devices: Vec<DeviceLive>,
    imputed_today: u32,
    /// The day's accounts, hour buckets and loss accumulators.
    tally: HomeTally,
    /// Decisions produced by the current chunk, drained at emit.
    out: Vec<DecisionRecord>,
    pws: PredictDayWorkspace,
    /// Per-chunk counter deltas, folded sequentially in home order.
    chunk_gap: u64,
    chunk_repaired: u64,
    chunk_quarantined_shed: u64,
}

impl HomeLive {
    fn fresh(home: usize, hh: HouseholdSpec, n_devices: usize) -> Self {
        HomeLive {
            home,
            hh,
            present: vec![false; MINUTES_PER_DAY],
            devices: (0..n_devices).map(|_| DeviceLive::fresh()).collect(),
            imputed_today: 0,
            tally: HomeTally::new(n_devices),
            out: Vec::new(),
            pws: PredictDayWorkspace::default(),
            chunk_gap: 0,
            chunk_repaired: 0,
            chunk_quarantined_shed: 0,
        }
    }

    /// Day-boundary reset: today becomes prev (it is fully repaired by
    /// now), buffers and per-day accumulators are cleared.
    fn roll_day(&mut self) {
        self.present.fill(false);
        self.imputed_today = 0;
        self.tally.reset(self.devices.len());
        for (device, dl) in self.devices.iter_mut().enumerate() {
            if self.hh.devices[device].controllable {
                std::mem::swap(&mut dl.prev, &mut dl.today);
            }
            dl.today.clear();
            dl.today.resize(MINUTES_PER_DAY, 0.0);
            dl.pred.clear();
            dl.last_good = 0.0;
            dl.steps_since_train = 0;
        }
    }
}

/// The streaming service loop.
pub struct ServeEngine {
    cfg: SimConfig,
    scfg: ServeConfig,
    method: EmsMethod,
    forecast: ForecastPhase,
    ems: EmsState,
    homes: Vec<HomeLive>,
    queues: Vec<BoundedQueue>,
    /// Next simulated minute to ingest; all minutes below it are closed.
    cursor: u64,
    lines_consumed: u64,
    counters: ServeCounters,
    /// Record that triggered a chunk close, re-ingested afterwards.
    pending: Option<TelemetryRecord>,
    snap_sched: Option<MinuteSchedule>,
    store: Option<CheckpointStore>,
    resumed_from: Option<u64>,
    snapshots_written: u64,
    last_snapshot_cursor: Option<u64>,
    max_queue_len: usize,
    /// Scratch for formatting decision lines.
    line_buf: String,
}

impl ServeEngine {
    /// Fresh engine at the start of the serving span (the priming day
    /// before `eval_start_day`).
    ///
    /// # Panics
    /// Panics if `cfg` or `scfg` fail validation.
    pub fn new(
        cfg: SimConfig,
        scfg: ServeConfig,
        method: EmsMethod,
        forecast: ForecastPhase,
        store: Option<CheckpointStore>,
    ) -> Self {
        cfg.validate();
        scfg.validate();
        let generator = TraceGenerator::new(cfg.generator());
        let d = cfg.devices_per_home();
        let homes = (0..cfg.n_residences)
            .map(|home| HomeLive::fresh(home, generator.household(home as u64), d))
            .collect();
        let queues = (0..scfg.n_shards)
            .map(|_| BoundedQueue::new(scfg.queue_capacity))
            .collect();
        let serve_start = (cfg.eval_start_day - 1) * MINUTES_PER_DAY as u64;
        let snap_sched = (scfg.snapshot_every_minutes > 0)
            .then(|| MinuteSchedule::new(scfg.snapshot_every_minutes, serve_start));
        let ems = EmsState::fresh(&cfg);
        ServeEngine {
            cfg,
            scfg,
            method,
            forecast,
            ems,
            homes,
            queues,
            cursor: serve_start,
            lines_consumed: 0,
            counters: ServeCounters::default(),
            pending: None,
            snap_sched,
            store,
            resumed_from: None,
            snapshots_written: 0,
            last_snapshot_cursor: None,
            max_queue_len: 0,
            line_buf: String::new(),
        }
    }

    /// Rebuilds a live engine from a snapshot with a `SERVE` section.
    /// The day-boundary state goes through [`EmsState::from_snapshot`];
    /// the mid-day buffers are restored from the serve section, and the
    /// day's forecast prefix is recomputed (bit-identical to the
    /// chunked original — pinned by the span/full-day equivalence
    /// test in `pfdrl-core`).
    pub fn resume(
        cfg: SimConfig,
        scfg: ServeConfig,
        method: EmsMethod,
        snap: &RunSnapshot,
        store: Option<CheckpointStore>,
    ) -> Result<Self, ServeError> {
        cfg.validate();
        scfg.validate();
        if snap.meta.config_hash != cfg.run_hash() {
            return Err(ServeError::Config(format!(
                "snapshot config hash {:#x} != current {:#x}",
                snap.meta.config_hash,
                cfg.run_hash()
            )));
        }
        if snap.meta.method != method.name() {
            return Err(ServeError::Config(format!(
                "snapshot method {} != requested {}",
                snap.meta.method,
                method.name()
            )));
        }
        let serve = snap.serve.as_ref().ok_or_else(|| {
            ServeError::Config("snapshot has no serve section (batch snapshot?)".to_string())
        })?;
        // Serve writes HEALTH whatever the config; without it the
        // health machines and loss history would restore as zeros.
        if snap.health.is_none() {
            return Err(ServeError::Config(
                "serve snapshot has no health section".to_string(),
            ));
        }
        let n = cfg.n_residences;
        let d = cfg.devices_per_home();
        let serve_start = (cfg.eval_start_day - 1) * MINUTES_PER_DAY as u64;
        let end_minute = (cfg.eval_start_day + cfg.eval_days) * MINUTES_PER_DAY as u64;
        if serve.homes.len() != n || serve.homes.iter().any(|h| h.devices.len() != d) {
            return Err(ServeError::Config(
                "serve section disagrees about fleet dimensions".to_string(),
            ));
        }
        if serve.cursor < serve_start
            || serve.cursor > end_minute
            || serve.cursor % scfg.chunk_minutes as u64 != 0
        {
            return Err(ServeError::Config(format!(
                "serve cursor {} invalid for span [{serve_start}, {end_minute}] \
                 with chunk {}",
                serve.cursor, scfg.chunk_minutes
            )));
        }
        let c_in_day = (serve.cursor % MINUTES_PER_DAY as u64) as usize;
        let day = serve.cursor / MINUTES_PER_DAY as u64;
        let priming = day < cfg.eval_start_day;

        let ems = EmsState::from_snapshot(&cfg, snap)?;
        let forecast = ForecastPhase::from_state(&cfg, &snap.forecast)?;
        let generator = TraceGenerator::new(cfg.generator());

        let mut homes = Vec::with_capacity(n);
        for (home, hs) in serve.homes.iter().enumerate() {
            let mut hl = HomeLive::fresh(home, generator.household(home as u64), d);
            hl.imputed_today = hs.imputed_today;
            hl.tally.loss_sum = hs.loss_sum;
            hl.tally.loss_steps = hs.loss_steps;
            hl.tally.nonfinite_losses = hs.nonfinite_losses;
            if hs.saved_hourly.len() != 24 || hs.standby_hourly.len() != 24 {
                return Err(ServeError::Config(format!(
                    "home {home}: serve hourly buckets must hold 24 bins \
                     ({} saved, {} standby)",
                    hs.saved_hourly.len(),
                    hs.standby_hourly.len()
                )));
            }
            hl.tally.saved.copy_from_slice(&hs.saved_hourly);
            hl.tally.standby.copy_from_slice(&hs.standby_hourly);
            for minute in 0..c_in_day {
                hl.present[minute] = true;
            }
            let quarantined = !priming && ems.health[home].quarantined();
            for (device, ds) in hs.devices.iter().enumerate() {
                let spec = &hl.hh.devices[device];
                let dl = &mut hl.devices[device];
                if !spec.controllable {
                    continue;
                }
                let want_prev = if priming { 0 } else { MINUTES_PER_DAY };
                if ds.prev_watts.len() != want_prev || ds.today_watts.len() != c_in_day {
                    return Err(ServeError::Config(format!(
                        "home {home} device {device}: serve buffers \
                         ({} prev, {} today) disagree with cursor {}",
                        ds.prev_watts.len(),
                        ds.today_watts.len(),
                        serve.cursor
                    )));
                }
                dl.prev = ds.prev_watts.clone();
                dl.today[..c_in_day].copy_from_slice(&ds.today_watts);
                dl.classify(spec, 0..c_in_day);
                dl.last_good = ds.last_good_watt;
                dl.steps_since_train = ds.steps_since_train;
                hl.tally.accounts[device] = ds.account;
                if !priming && !quarantined && c_in_day > 0 {
                    let model = forecast.models[home][device].as_ref();
                    dl.predict_through(&cfg, model, spec, c_in_day, &mut hl.pws);
                }
            }
            homes.push(hl);
        }

        let queues = (0..scfg.n_shards)
            .map(|_| BoundedQueue::new(scfg.queue_capacity))
            .collect();
        let snap_sched = (scfg.snapshot_every_minutes > 0).then(|| {
            let mut s = MinuteSchedule::new(scfg.snapshot_every_minutes, serve_start);
            // Fast-forward past the resume point without firing; the
            // uninterrupted run's schedule sits at the same next-due.
            let _ = s.due(serve.cursor);
            s
        });
        // The resumed run re-serves nothing: decisions before the
        // cursor were already emitted (the sink was flushed before the
        // snapshot was written), so the log continues where it stopped.
        let counters = ServeCounters {
            decisions: serve.decisions,
            shed_stale: serve.shed_stale,
            shed_out_of_span: serve.shed_out_of_span,
            shed_unknown_home: serve.shed_unknown_home,
            shed_malformed: serve.shed_malformed,
            rejected_backpressure: serve.rejected_backpressure,
            sink_retries: serve.sink_retries,
            gap_imputed: serve.gap_imputed,
            repaired_values: serve.repaired_values,
            quarantined_shed: serve.quarantined_shed,
        };
        Ok(ServeEngine {
            cfg,
            scfg,
            method,
            forecast,
            ems,
            homes,
            queues,
            cursor: serve.cursor,
            lines_consumed: serve.lines_consumed,
            counters,
            pending: None,
            snap_sched,
            store,
            resumed_from: Some(serve.cursor),
            snapshots_written: 0,
            last_snapshot_cursor: Some(serve.cursor),
            max_queue_len: 0,
            line_buf: String::new(),
        })
    }

    fn serve_start(&self) -> u64 {
        (self.cfg.eval_start_day - 1) * MINUTES_PER_DAY as u64
    }

    fn end_minute(&self) -> u64 {
        (self.cfg.eval_start_day + self.cfg.eval_days) * MINUTES_PER_DAY as u64
    }

    /// Drives the loop until the span is served or the source runs dry,
    /// then writes a final snapshot (when a store is configured).
    pub fn run(
        &mut self,
        source: &mut dyn TelemetrySource,
        sink: &mut dyn DecisionSink,
    ) -> Result<ServeReport, ServeError> {
        let started = Instant::now();
        if self.resumed_from.is_some() {
            source.skip_lines(self.lines_consumed)?;
        }
        let mut buf = String::new();
        while self.cursor < self.end_minute() {
            let rec = match self.pending.take() {
                Some(rec) => rec,
                None => {
                    if !source.next_line(&mut buf)? {
                        break;
                    }
                    match parse_telemetry(&buf) {
                        Some(rec) => rec,
                        None => {
                            self.counters.shed_malformed += 1;
                            self.lines_consumed += 1;
                            continue;
                        }
                    }
                }
            };
            self.ingest(rec, sink)?;
        }
        // Close the final partial chunk if anything was admitted to it.
        if self.queues.iter().any(|q| !q.is_empty()) {
            self.close_chunk(sink)?;
        }
        if self.store.is_some() && self.last_snapshot_cursor != Some(self.cursor) {
            self.write_snapshot()?;
        }
        let wall_s = started.elapsed().as_secs_f64();
        Ok(self.report(wall_s))
    }

    /// Applies one record: shed, chunk-close trigger, or admission.
    fn ingest(
        &mut self,
        rec: TelemetryRecord,
        sink: &mut dyn DecisionSink,
    ) -> Result<(), ServeError> {
        if rec.home >= self.cfg.n_residences {
            self.counters.shed_unknown_home += 1;
            self.lines_consumed += 1;
            return Ok(());
        }
        if rec.watts.len() != self.cfg.devices_per_home() {
            self.counters.shed_malformed += 1;
            self.lines_consumed += 1;
            return Ok(());
        }
        if rec.minute < self.serve_start() || rec.minute >= self.end_minute() {
            self.counters.shed_out_of_span += 1;
            self.lines_consumed += 1;
            return Ok(());
        }
        if rec.minute < self.cursor {
            self.counters.shed_stale += 1;
            self.lines_consumed += 1;
            return Ok(());
        }
        let chunk = self.scfg.chunk_minutes as u64;
        if rec.minute >= self.cursor + chunk {
            // The record belongs to a later chunk: close the open one
            // first, then retry. The record is NOT counted as consumed
            // yet — a resume from the snapshot the close may write will
            // re-read this line and replay the same trigger.
            self.pending = Some(rec);
            self.close_chunk(sink)?;
            return Ok(());
        }
        let shard = rec.home % self.scfg.n_shards;
        let rec = match self.queues[shard].offer(rec) {
            Ok(()) => {
                self.max_queue_len = self.max_queue_len.max(self.queues[shard].len());
                self.lines_consumed += 1;
                return Ok(());
            }
            Err(rec) => rec,
        };
        // Backpressure: the shard is full. Drain it into the day
        // buffers early (index writes — order-independent across
        // shards) instead of growing anything.
        self.counters.rejected_backpressure += 1;
        Self::drain_queue(&mut self.queues[shard], &mut self.homes);
        self.queues[shard]
            .offer(rec)
            .unwrap_or_else(|_| unreachable!("queue was just drained"));
        self.max_queue_len = self.max_queue_len.max(self.queues[shard].len());
        self.lines_consumed += 1;
        Ok(())
    }

    /// Applies every queued record of `queue` to the day buffers. All
    /// records in a queue belong to the open chunk, and each targets
    /// its own (home, minute) slots, so drain order across shards does
    /// not matter; duplicates resolve to the last arrival in-shard.
    fn drain_queue(queue: &mut BoundedQueue, homes: &mut [HomeLive]) {
        while let Some(rec) = queue.pop() {
            let minute = (rec.minute % MINUTES_PER_DAY as u64) as usize;
            let hl = &mut homes[rec.home];
            hl.present[minute] = true;
            for (device, &w) in rec.watts.iter().enumerate() {
                hl.devices[device].today[minute] = w;
            }
        }
    }

    /// Closes the chunk `[cursor, cursor + chunk)`: drains the queues,
    /// repairs, predicts, decides, emits, and rolls the day/snapshot
    /// machinery when the close lands on their boundaries.
    fn close_chunk(&mut self, sink: &mut dyn DecisionSink) -> Result<(), ServeError> {
        let chunk = self.scfg.chunk_minutes;
        let c0 = (self.cursor % MINUTES_PER_DAY as u64) as usize;
        let c1 = c0 + chunk;
        let day = self.cursor / MINUTES_PER_DAY as u64;
        let priming = day < self.cfg.eval_start_day;

        for queue in &mut self.queues {
            Self::drain_queue(queue, &mut self.homes);
        }

        // A day's quarantine verdict (set at the previous day close)
        // holds for the whole day; count it once at the day's first
        // chunk, mirroring the batch accounting.
        if c0 == 0 && !priming {
            self.ems.count_quarantined();
        }

        let cfg = &self.cfg;
        let forecast = &self.forecast;
        let train = self.scfg.train;
        let day_minute0 = day * MINUTES_PER_DAY as u64;
        let EmsState { agents, health, .. } = &mut self.ems;
        let health = &*health;
        self.homes
            .par_iter_mut()
            .zip(agents.par_iter_mut())
            .for_each(|(hl, agent_row)| {
                repair_chunk(hl, c0, c1);
                if priming {
                    return;
                }
                if health[hl.home].quarantined() {
                    let decide_from = c0.max(cfg.state_window);
                    if c1 > decide_from {
                        let controllable = hl.hh.devices.iter().filter(|s| s.controllable).count();
                        hl.chunk_quarantined_shed += ((c1 - decide_from) * controllable) as u64;
                    }
                    return;
                }
                decide_chunk(cfg, forecast, hl, agent_row, c0, c1, day_minute0, train);
            });

        // Sequential folds + emission, in home order (determinism).
        for hl in &mut self.homes {
            self.counters.gap_imputed += hl.chunk_gap;
            self.counters.repaired_values += hl.chunk_repaired;
            self.counters.quarantined_shed += hl.chunk_quarantined_shed;
            hl.chunk_gap = 0;
            hl.chunk_repaired = 0;
            hl.chunk_quarantined_shed = 0;
            for dec in hl.out.drain(..) {
                format_decision(&dec, &mut self.line_buf);
                loop {
                    match sink.emit(&self.line_buf)? {
                        SinkStatus::Accepted => break,
                        SinkStatus::Busy => {
                            // The engine pulls no further input while
                            // a slow sink throttles it: ingress stays
                            // bounded no matter how slow the consumer.
                            self.counters.sink_retries += 1;
                        }
                    }
                }
                self.counters.decisions += 1;
            }
        }
        // Flush before any snapshot: a snapshot must never claim
        // decisions that are still sitting in a write buffer.
        sink.flush()?;

        self.cursor += chunk as u64;
        if self.cursor.is_multiple_of(MINUTES_PER_DAY as u64) {
            self.close_day(day, priming);
        }
        let snap_due = match &mut self.snap_sched {
            Some(s) => s.due(self.cursor),
            None => false,
        };
        if self.store.is_some() && (snap_due || self.cursor == self.end_minute()) {
            self.write_snapshot()?;
        }
        if let Some(abort_at) = self.scfg.abort_after_minute {
            if self.cursor >= abort_at && self.cursor < self.end_minute() {
                // Crash hook: die hard (no unwinding, no Drop flushes),
                // exactly like a SIGKILL, after the snapshot above.
                std::process::abort();
            }
        }
        Ok(())
    }

    /// Day-boundary bookkeeping through the batch day's own folds: the
    /// day's hour buckets, accounts, daily series and mean loss, then
    /// the health verdicts on the day's dirt and the night's federation
    /// round.
    fn close_day(&mut self, day: u64, priming: bool) {
        if !priming {
            debug_assert_eq!(self.ems.next_day, day, "serve closes days in order");
            let tallies = || self.homes.iter().map(|hl| &hl.tally);
            self.ems.fold_hours(tallies());
            self.ems.close_day(&self.cfg, tallies());
            // Health observes the day's dirt now that the whole stream
            // for it is known; the verdict gates tonight's federation
            // round and tomorrow's inference.
            self.ems
                .observe_health(self.homes.iter().map(|hl| hl.imputed_today));
            self.ems.federate_now(&self.cfg, self.method);
        }
        for hl in &mut self.homes {
            hl.roll_day();
        }
    }

    /// Captures the full live state (day-boundary + serve section).
    fn write_snapshot(&mut self) -> Result<(), ServeError> {
        let store = self.store.as_ref().expect("caller checked store");
        let mut forecast_state = self.forecast.export_state();
        // The forecast section carries an informational training
        // wall-clock; serve snapshots zero it so two runs over the same
        // stream are byte-identical (the serve determinism contract).
        forecast_state.train_wall_s = 0.0;
        let mut snap = self.ems.to_snapshot(&self.cfg, self.method, forecast_state);
        // Serve always runs the health machine, so the section is
        // always present (batch gates it on the fault config).
        snap.health = Some(self.ems.export_health());
        snap.serve = Some(self.export_serve());
        store.save(&snap)?;
        self.snapshots_written += 1;
        self.last_snapshot_cursor = Some(self.cursor);
        Ok(())
    }

    fn export_serve(&self) -> ServeState {
        let c_in_day = (self.cursor % MINUTES_PER_DAY as u64) as usize;
        ServeState {
            cursor: self.cursor,
            lines_consumed: self.lines_consumed,
            decisions: self.counters.decisions,
            shed_stale: self.counters.shed_stale,
            shed_out_of_span: self.counters.shed_out_of_span,
            shed_unknown_home: self.counters.shed_unknown_home,
            shed_malformed: self.counters.shed_malformed,
            rejected_backpressure: self.counters.rejected_backpressure,
            sink_retries: self.counters.sink_retries,
            gap_imputed: self.counters.gap_imputed,
            repaired_values: self.counters.repaired_values,
            quarantined_shed: self.counters.quarantined_shed,
            homes: self
                .homes
                .iter()
                .map(|hl| ServeHomeState {
                    imputed_today: hl.imputed_today,
                    loss_sum: hl.tally.loss_sum,
                    loss_steps: hl.tally.loss_steps,
                    nonfinite_losses: hl.tally.nonfinite_losses,
                    saved_hourly: hl.tally.saved.to_vec(),
                    standby_hourly: hl.tally.standby.to_vec(),
                    devices: hl
                        .devices
                        .iter()
                        .enumerate()
                        .map(|(device, dl)| {
                            if !hl.hh.devices[device].controllable {
                                return ServeDeviceState::default();
                            }
                            ServeDeviceState {
                                last_good_watt: dl.last_good,
                                steps_since_train: dl.steps_since_train,
                                account: hl.tally.accounts[device],
                                prev_watts: dl.prev.clone(),
                                today_watts: dl.today[..c_in_day].to_vec(),
                            }
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    fn report(&self, wall_s: f64) -> ServeReport {
        let completed = self.ems.daily_saved_fraction.len();
        let mean = if completed == 0 {
            0.0
        } else {
            self.ems.daily_saved_fraction.iter().sum::<f64>() / completed as f64
        };
        ServeReport {
            config_hash: self.cfg.run_hash(),
            method: self.method.name().to_string(),
            served_minutes: self.cursor - self.serve_start(),
            completed_days: completed as u64,
            decisions: self.counters.decisions,
            wall_s,
            decisions_per_sec: if wall_s > 0.0 {
                self.counters.decisions as f64 / wall_s
            } else {
                0.0
            },
            mean_saved_fraction: mean,
            final_saved_fraction: self.ems.daily_saved_fraction.last().copied().unwrap_or(0.0),
            resumed_from_minute: self.resumed_from,
            fed_rounds: self.ems.fed_round,
            snapshots_written: self.snapshots_written,
            max_queue_len: self.max_queue_len as u64,
            counters: self.counters,
        }
    }

    /// Whether the full serving span has been processed.
    pub fn done(&self) -> bool {
        self.cursor >= self.end_minute()
    }

    /// The ingest cursor (next simulated minute to serve).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }
}

/// Repairs the chunk `[c0, c1)` of one home in place: minutes that
/// never arrived forward-fill from the last good value, delivered
/// values outside the plausible band (non-finite, negative, above
/// [`WATT_CEILING`]) are replaced the same way. Matches
/// `impute_forward_fill` semantics with a per-day 0.0 fallback. The
/// repaired readings are then classified into the device's modes.
fn repair_chunk(hl: &mut HomeLive, c0: usize, c1: usize) {
    let HomeLive {
        hh,
        present,
        devices,
        imputed_today,
        chunk_gap,
        chunk_repaired,
        ..
    } = hl;
    for (dl, spec) in devices.iter_mut().zip(&hh.devices) {
        if !spec.controllable {
            continue;
        }
        for (seen, watt) in present[c0..c1].iter().zip(&mut dl.today[c0..c1]) {
            if !seen {
                *watt = dl.last_good;
                *chunk_gap += 1;
                *imputed_today += 1;
                continue;
            }
            let w = *watt;
            if !w.is_finite() || !(0.0..=WATT_CEILING).contains(&w) {
                *watt = dl.last_good;
                *chunk_repaired += 1;
                *imputed_today += 1;
            } else {
                dl.last_good = w;
            }
        }
        dl.classify(spec, c0..c1);
    }
}

/// Extends forecasts and runs the device-minute kernel for the chunk
/// `[c0, c1)` of one healthy home, logging every decision.
#[allow(clippy::too_many_arguments)]
fn decide_chunk(
    cfg: &SimConfig,
    forecast: &ForecastPhase,
    hl: &mut HomeLive,
    agents: &mut [DqnAgent],
    c0: usize,
    c1: usize,
    day_minute0: u64,
    train: bool,
) {
    let HomeLive {
        home,
        hh,
        devices,
        tally,
        out,
        pws,
        ..
    } = hl;
    let home = *home;
    for (device, dl) in devices.iter_mut().enumerate() {
        let spec = &hh.devices[device];
        if !spec.controllable {
            continue;
        }
        dl.predict_through(cfg, forecast.models[home][device].as_ref(), spec, c1, pws);
        let day = DaySeries {
            spec,
            pred: &dl.pred,
            watts: &dl.today,
            modes: &dl.modes,
        };
        run_device_span(
            cfg,
            &mut agents[device],
            day,
            c0..c1,
            train,
            &mut dl.steps_since_train,
            tally,
            device,
            |t, action, reward| {
                out.push(DecisionRecord {
                    minute: day_minute0 + t as u64,
                    home,
                    device,
                    action: action.index(),
                    reward,
                })
            },
        );
    }
}
