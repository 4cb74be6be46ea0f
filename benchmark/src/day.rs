//! `paper_day` and `fleet_day`: steady simulated days of the EMS.
//!
//! An untraced run times whole days of `EmsState::advance_day` (plus
//! the checkpoint `paper_day` writes after each day). A traced run
//! restores a twin of the warmed-up state through the store and drives
//! it with [`Mirror`], a copy of the day built from public calls, each
//! one timed; the twin must end every day bit-identical to the
//! untraced original, or the trace describes some other computation.

use crate::fed::{fl_delta, fl_stats, report_fl, FlDelta};
use crate::metrics::{peak_rss_mb, Report};
use crate::stats::median;
use crate::trace::{report_breakdown, Layer, Tracer};
use crate::workloads::METHOD;
use pfdrl_core::{
    predict_day_into, train_forecasters, EmsState, ForecastPhase, PredictDayWorkspace, SimConfig,
};
use pfdrl_data::{DayTrace, HouseholdSpec, TraceGenerator, MINUTES_PER_DAY};
use pfdrl_drl::{DqnAgent, Transition};
use pfdrl_env::{DeviceEnv, EnergyAccount, EnvConfig};
use pfdrl_forecast::metrics::{paper_accuracies, DEFAULT_ACCURACY_FLOOR_WATTS};
use pfdrl_store::CheckpointStore;
use std::error::Error;
use std::path::Path;
use std::time::Instant;

/// One day workload.
pub struct DaySpec {
    pub cfg: SimConfig,
    /// Write a checkpoint after every day (part of the timed day).
    pub checkpoint: bool,
}

/// Untimed days first: replay rings (2,000 transitions, ~1,400 steps a
/// day) are full after two, and every buffer is sized.
const WARMUP_DAYS: u64 = 2;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed days per untraced run, whatever `--seconds` says.
const MIN_DAYS: usize = 3;
/// Fewest traced days per traced run.
const MIN_TRACED_DAYS: usize = 2;
/// The traced day must attribute at least this share of its wall time
/// to calls into named layers.
const MIN_COVERAGE: f64 = 0.9;

type Res<T> = Result<T, Box<dyn Error>>;

/// Runs the workload, traced or not as `report` says.
pub fn run(
    spec: &DaySpec,
    seconds: f64,
    scratch: &Path,
    tr: &mut Tracer,
    report: &mut Report,
) -> Res<()> {
    if report.trace() {
        run_traced(spec, seconds, scratch, tr, report)
    } else {
        run_untraced(spec, seconds, scratch, report)
    }
}

fn checkpoint_store(spec: &DaySpec, dir: &Path) -> Res<Option<CheckpointStore>> {
    Ok(if spec.checkpoint {
        Some(CheckpointStore::open(dir, 2)?)
    } else {
        None
    })
}

/// Advances `state` one day and, when `store` is set, checkpoints it.
fn checkpointed_day(
    cfg: &SimConfig,
    forecast: &ForecastPhase,
    state: &mut EmsState,
    store: Option<&CheckpointStore>,
) -> Res<()> {
    state.advance_day(cfg, METHOD, forecast);
    if let Some(store) = store {
        store.save(&state.to_snapshot(cfg, METHOD, forecast.export_state()))?;
    }
    Ok(())
}

fn run_untraced(spec: &DaySpec, seconds: f64, scratch: &Path, report: &mut Report) -> Res<()> {
    let cfg = &spec.cfg;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        let forecast = train_forecasters(cfg, METHOD);
        let state = EmsState::fresh(cfg);
        setups.push(t.elapsed().as_secs_f64());
        kept = Some((forecast, state));
    }
    let (forecast, mut a) = kept.expect("at least one set-up");
    for _ in 0..WARMUP_DAYS {
        a.advance_day(cfg, METHOD, &forecast);
    }

    let store = checkpoint_store(spec, &scratch.join("a"))?;
    let fl0 = fl_stats(&a);
    let minutes0 = a.total.minutes;
    let first = a.daily_saved_fraction.len();
    let mut day_ms = Vec::new();
    let started = Instant::now();
    while (day_ms.len() < MIN_DAYS || started.elapsed().as_secs_f64() < seconds) && !a.done(cfg) {
        let t = Instant::now();
        checkpointed_day(cfg, &forecast, &mut a, store.as_ref())?;
        day_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.metric("peak_rss_mb", peak_rss_mb());
    let fl = fl_delta(&fl0, &fl_stats(&a));
    let decisions = a.total.minutes - minutes0;
    let timed_s: f64 = day_ms.iter().sum::<f64>() / 1e3;
    report.metric("setup_s", median(&setups).unwrap_or(f64::NAN));
    report.metric("latency_ms_p50", median(&day_ms).unwrap_or(f64::NAN));
    report.metric("throughput_per_s", decisions as f64 / timed_s);

    let saved = &a.daily_saved_fraction[first..];
    let bad_days = a.daily_mean_loss[first..]
        .iter()
        .filter(|l| !l.is_finite())
        .count() as u64;
    report.ops(
        day_ms.len() as u64 + fl.messages,
        bad_days + fl.dropped + fl.corrupted,
    );
    report.info("timed_days", day_ms.len() as f64);
    report.info("decisions", decisions as f64);
    report.info(
        "saved_fraction",
        saved.iter().sum::<f64>() / saved.len() as f64,
    );
    report.info("wire_bytes_per_day", fl.bytes as f64 / day_ms.len() as f64);
    report.check(
        "saved fractions are finite fractions",
        saved.iter().all(|f| (0.0..=1.0).contains(f)),
        format!("{saved:?}"),
    );
    report.check(
        "every day's mean loss is finite",
        bad_days == 0,
        format!("{bad_days} days with a non-finite loss"),
    );
    fault_free(report, &fl);

    let accuracy = forecast_accuracy(cfg, &forecast);
    report.info("forecast_accuracy", accuracy);
    report.check(
        "forecast accuracy is in (0, 1]",
        accuracy > 0.0 && accuracy <= 1.0,
        format!("{accuracy}"),
    );
    if let Some(store) = &store {
        let path = store.latest()?.ok_or("no checkpoint was written")?;
        let twin = EmsState::from_snapshot(cfg, &CheckpointStore::load(&path)?)?;
        same_position(report, &a, &twin);
    }
    Ok(())
}

fn fault_free(report: &mut Report, fl: &FlDelta) {
    report.check(
        "federation delivered every message intact",
        fl.messages > 0 && fl.dropped == 0 && fl.corrupted == 0,
        format!(
            "{} messages, {} dropped, {} corrupted",
            fl.messages, fl.dropped, fl.corrupted
        ),
    );
}

fn same_position(report: &mut Report, a: &EmsState, twin: &EmsState) {
    report.check(
        "restored twin has the original's next_day and fed_round",
        twin.next_day == a.next_day && twin.fed_round == a.fed_round,
        format!(
            "day {} vs {}, round {} vs {}",
            twin.next_day, a.next_day, twin.fed_round, a.fed_round
        ),
    );
}

/// Mean paper accuracy of the day-ahead forecasts over the first
/// evaluation day (held out from training), every home and device.
fn forecast_accuracy(cfg: &SimConfig, forecast: &ForecastPhase) -> f64 {
    let gen = TraceGenerator::new(cfg.generator());
    let day = cfg.eval_start_day;
    let mut ws = PredictDayWorkspace::default();
    let mut pred = Vec::new();
    let (mut sum, mut n) = (0.0f64, 0usize);
    for home in 0..cfg.n_residences {
        let hh = gen.household(home as u64);
        for (device, spec) in hh.devices.iter().enumerate() {
            let prev = gen.day_trace(home as u64, device, day - 1);
            let today = gen.day_trace(home as u64, device, day);
            let model = forecast.models[home][device].as_ref();
            predict_day_into(cfg, model, &prev, &today, spec.on_watts, &mut ws, &mut pred);
            for a in paper_accuracies(&pred, &today.watts, DEFAULT_ACCURACY_FLOOR_WATTS) {
                sum += a;
                n += 1;
            }
        }
    }
    sum / n as f64
}

fn run_traced(
    spec: &DaySpec,
    seconds: f64,
    scratch: &Path,
    tr: &mut Tracer,
    report: &mut Report,
) -> Res<()> {
    let cfg = &spec.cfg;
    let t = Instant::now();
    let forecast = train_forecasters(cfg, METHOD);
    let fit_s = t.elapsed().as_secs_f64();
    let mut a = EmsState::fresh(cfg);
    let setup_s = t.elapsed().as_secs_f64();
    for _ in 0..WARMUP_DAYS {
        a.advance_day(cfg, METHOD, &forecast);
    }

    // Twin B: snapshot A, save, load, restore, each timed.
    let twin_store = CheckpointStore::open(scratch.join("twin"), 1)?;
    let snap = store_step(tr, report, "to_snapshot", || {
        a.to_snapshot(cfg, METHOD, forecast.export_state())
    });
    let path = store_step(tr, report, "save", || twin_store.save(&snap))?;
    drop(snap);
    let snapshot_bytes = std::fs::metadata(&path)?.len();
    let snap = store_step(tr, report, "load", || CheckpointStore::load(&path))?;
    let mut b = store_step(tr, report, "restore", || {
        EmsState::from_snapshot(cfg, &snap)
    })?;
    drop(snap);
    same_position(report, &a, &b);

    let mut mirror = Mirror::prime(cfg, &b);
    let store_a = checkpoint_store(spec, &scratch.join("a"))?;
    let store_b = checkpoint_store(spec, &scratch.join("b"))?;
    let mut roots = Vec::new();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut fl = FlDelta::default();
    let mut mismatch = None;
    let started = Instant::now();
    while (roots.len() < MIN_TRACED_DAYS || started.elapsed().as_secs_f64() < seconds)
        && !a.done(cfg)
    {
        let t = Instant::now();
        checkpointed_day(cfg, &forecast, &mut a, store_a.as_ref())?;
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let fl0 = fl_stats(&b);
        let root = tr.begin("op", Layer::Core);
        mirror.day(cfg, &forecast, &mut b, tr);
        if let Some(store) = &store_b {
            let snap = tr.span("to_snapshot", Layer::Store, || {
                b.to_snapshot(cfg, METHOD, forecast.export_state())
            });
            tr.span("save", Layer::Store, || store.save(&snap))?;
        }
        tr.end(root);
        roots.push(root);
        traced_ms.push(ms(tr.duration_ns(root)));
        fl.add(&fl_delta(&fl0, &fl_stats(&b)));
        if mismatch.is_none() {
            mismatch = differs(&a, &b).map(|what| format!("day {}: {what}", a.next_day - 1));
        }
    }

    let days = roots.len() as u64;
    let bd = tr.breakdown(&roots);
    report.check(
        "traced mirror day is bit-identical to advance_day",
        mismatch.is_none(),
        mismatch.unwrap_or_else(|| format!("{days} days matched")),
    );
    report.check(
        "trace covers at least 90% of the day",
        bd.coverage() >= MIN_COVERAGE,
        format!("coverage {:.4}", bd.coverage()),
    );
    fault_free(report, &fl);
    report.ops(days + fl.messages, fl.dropped + fl.corrupted);
    let overhead =
        median(&traced_ms).unwrap_or(f64::NAN) / median(&untraced_ms).unwrap_or(f64::NAN) - 1.0;
    report_breakdown(report, &bd, days, overhead);
    let per_day = FlDelta {
        messages: fl.messages / days,
        bytes: fl.bytes / days,
        logical_bytes: fl.logical_bytes / days,
        dropped: fl.dropped / days,
        corrupted: fl.corrupted / days,
    };
    report_fl(report, &b, cfg, &per_day);
    report.metric("forecast.fit_share", fit_s / setup_s);
    report.metric("store.snapshot_bytes", snapshot_bytes as f64);
    for name in [
        "serve.max_queue_len",
        "serve.backpressure_drains",
        "serve.shed",
        "serve.fed_rounds",
    ] {
        report.metric(name, 0.0);
    }
    Ok(())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs `f` in a `store` span and records its time as `store.<name>_ms`.
fn store_step<R>(
    tr: &mut Tracer,
    report: &mut Report,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let id = tr.begin(name, Layer::Store);
    let r = f();
    tr.end(id);
    report.info(format!("store.{name}_ms"), ms(tr.duration_ns(id)));
    r
}

/// What differs between the untraced original and the mirrored twin
/// after the same day, compared bit for bit; `None` when nothing does.
fn differs(a: &EmsState, b: &EmsState) -> Option<String> {
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }
    let checks = [
        ("next_day", a.next_day == b.next_day),
        ("fed_round", a.fed_round == b.fed_round),
        (
            "saved fraction",
            bits(&a.daily_saved_fraction) == bits(&b.daily_saved_fraction),
        ),
        (
            "saved kWh per client",
            bits(&a.daily_saved_kwh_per_client) == bits(&b.daily_saved_kwh_per_client),
        ),
        // A plain snapshot does not carry the loss history, so the twin
        // only has the days it ran itself.
        (
            "mean loss",
            a.daily_mean_loss.last().map(|l| l.to_bits())
                == b.daily_mean_loss.last().map(|l| l.to_bits()),
        ),
        (
            "hourly saved",
            bits(&a.hourly_saved) == bits(&b.hourly_saved)
                && bits(&a.hourly_standby) == bits(&b.hourly_standby),
        ),
        (
            "energy accounts",
            a.total == b.total && a.per_home_late == b.per_home_late,
        ),
    ];
    checks
        .iter()
        .find(|(_, same)| !same)
        .map(|(what, _)| what.to_string())
}

/// One controllable device's buffers in the mirror.
struct MirrorDevice {
    prev: DayTrace,
    today: DayTrace,
    pred: Vec<f64>,
    env: DeviceEnv,
    cur: Vec<f64>,
    next: Vec<f64>,
}

struct MirrorHome {
    hh: HouseholdSpec,
    /// `None` for devices the EMS does not control.
    devices: Vec<Option<MirrorDevice>>,
    pws: PredictDayWorkspace,
    /// State buffers recycled through replay-ring evictions.
    pool: Vec<Vec<f64>>,
    loss_sum: f64,
    loss_steps: u64,
    nonfinite_losses: u32,
}

/// Busy time and calls of one home's segment, plus its hour buckets.
#[derive(Default)]
struct Segment {
    saved: [f64; 24],
    standby: [f64; 24],
    steps: u64,
    act_ns: u64,
    step_ns: u64,
    remember_ns: u64,
    train_ns: u64,
    train_steps: u64,
}

/// `EmsState::advance_day` rebuilt from public calls for a fault-free
/// configuration: per home and device, trace → `predict_day_into` →
/// `DeviceEnv`; per γ segment, act → `step_into` → `remember_evict` →
/// `train_step`; `federate_now` at each boundary. It keeps the same
/// call order and float-summation order, so the twin it drives ends
/// each day bit-identical to the original.
pub struct Mirror {
    gen: TraceGenerator,
    homes: Vec<MirrorHome>,
}

impl Mirror {
    /// Loads households and the traces of the day before `b.next_day`,
    /// outside any timed span, as `advance_day` holds them in its
    /// workspace in steady state.
    pub fn prime(cfg: &SimConfig, b: &EmsState) -> Self {
        let gen = TraceGenerator::new(cfg.generator());
        let env_cfg = EnvConfig {
            state_window: cfg.state_window,
        };
        let day = b.next_day;
        let homes = (0..cfg.n_residences)
            .map(|home| {
                let hh = gen.household(home as u64);
                let devices = hh
                    .devices
                    .iter()
                    .enumerate()
                    .map(|(device, spec)| {
                        spec.controllable.then(|| {
                            let mut today = DayTrace::default();
                            gen.day_trace_into(&hh, device, day - 1, &mut today);
                            let env = DeviceEnv::new(
                                spec.clone(),
                                vec![0.0; MINUTES_PER_DAY],
                                today.watts.clone(),
                                today.modes.clone(),
                                env_cfg,
                            );
                            MirrorDevice {
                                prev: DayTrace::default(),
                                today,
                                pred: Vec::new(),
                                env,
                                cur: Vec::new(),
                                next: Vec::new(),
                            }
                        })
                    })
                    .collect();
                MirrorHome {
                    hh,
                    devices,
                    pws: PredictDayWorkspace::default(),
                    pool: Vec::new(),
                    loss_sum: 0.0,
                    loss_steps: 0,
                    nonfinite_losses: 0,
                }
            })
            .collect();
        Mirror { gen, homes }
    }

    /// Runs day `b.next_day` on `b`, recording spans into `tr`.
    pub fn day(
        &mut self,
        cfg: &SimConfig,
        forecast: &ForecastPhase,
        b: &mut EmsState,
        tr: &mut Tracer,
    ) {
        let day = b.next_day;
        let env_cfg = EnvConfig {
            state_window: cfg.state_window,
        };
        let gamma_minutes = ((cfg.gamma_hours * 60.0).round() as usize).max(1);
        let late_start = cfg.eval_start_day + cfg.eval_days - cfg.eval_days.div_ceil(3);
        let Mirror { gen, homes } = self;

        for (home, mh) in homes.iter_mut().enumerate() {
            mh.loss_sum = 0.0;
            mh.loss_steps = 0;
            mh.nonfinite_losses = 0;
            let MirrorHome {
                hh, devices, pws, ..
            } = mh;
            for (device, md) in devices.iter_mut().enumerate() {
                let Some(md) = md else { continue };
                let spec = &hh.devices[device];
                std::mem::swap(&mut md.prev, &mut md.today);
                tr.span("day_trace_into", Layer::Data, || {
                    gen.day_trace_into(hh, device, day, &mut md.today)
                });
                let model = forecast.models[home][device].as_ref();
                tr.span("predict_day_into", Layer::Forecast, || {
                    predict_day_into(
                        cfg,
                        model,
                        &md.prev,
                        &md.today,
                        spec.on_watts,
                        pws,
                        &mut md.pred,
                    )
                });
                tr.span("load_day", Layer::Env, || {
                    md.env.load_day(
                        spec.clone(),
                        &md.pred,
                        &md.today.watts,
                        &md.today.modes,
                        env_cfg,
                    );
                    md.env.reset_into(&mut md.cur);
                });
            }
        }

        let day_minute0 = (day - cfg.eval_start_day) as usize * MINUTES_PER_DAY;
        let mut seg_start = 0usize;
        while seg_start < MINUTES_PER_DAY {
            let next_boundary = ((day_minute0 + seg_start) / gamma_minutes + 1) * gamma_minutes;
            let seg_end = (next_boundary - day_minute0).min(MINUTES_PER_DAY);
            for (home, mh) in homes.iter_mut().enumerate() {
                let id = tr.begin("segment", Layer::Core);
                let s = mh.segment(cfg, &mut b.agents[home], seg_end);
                tr.busy(id, "act", Layer::Drl, s.act_ns, s.steps);
                tr.busy(id, "step_into", Layer::Env, s.step_ns, s.steps);
                tr.busy(id, "remember_evict", Layer::Drl, s.remember_ns, s.steps);
                tr.busy(id, "train_step", Layer::Drl, s.train_ns, s.train_steps);
                tr.end(id);
                for h in 0..24 {
                    b.hourly_saved[h] += s.saved[h];
                    b.hourly_standby[h] += s.standby[h];
                }
            }
            if seg_end < MINUTES_PER_DAY || next_boundary == day_minute0 + MINUTES_PER_DAY {
                tr.span("federate_now", Layer::Fl, || b.federate_now(cfg, METHOD));
            }
            seg_start = seg_end;
        }

        let mut day_account = EnergyAccount::new();
        for (home, mh) in homes.iter().enumerate() {
            for md in mh.devices.iter().flatten() {
                day_account.merge(md.env.account());
                if day >= late_start {
                    b.per_home_late[home].merge(md.env.account());
                }
            }
        }
        b.total.merge(&day_account);
        b.daily_saved_fraction
            .push(day_account.saved_fraction().unwrap_or(0.0));
        b.daily_saved_kwh_per_client
            .push(day_account.standby_saved_kwh / cfg.n_residences as f64);
        let (mut loss_sum, mut loss_steps, mut nonfinite) = (0.0f64, 0u64, 0u32);
        for mh in homes.iter() {
            loss_sum += mh.loss_sum;
            loss_steps += mh.loss_steps;
            nonfinite += mh.nonfinite_losses;
        }
        b.daily_mean_loss.push(if nonfinite > 0 {
            f64::NAN
        } else if loss_steps == 0 {
            0.0
        } else {
            loss_sum / loss_steps as f64
        });
        b.next_day = day + 1;
    }
}

impl MirrorHome {
    /// Advances every device of this home to `seg_end`, timing each call.
    fn segment(&mut self, cfg: &SimConfig, agents: &mut [DqnAgent], seg_end: usize) -> Segment {
        let mut s = Segment::default();
        let MirrorHome {
            devices,
            pool,
            loss_sum,
            loss_steps,
            nonfinite_losses,
            ..
        } = self;
        let ns = |from: Instant, to: Instant| (to - from).as_nanos() as u64;
        for (device, md) in devices.iter_mut().enumerate() {
            let Some(md) = md else { continue };
            let agent = &mut agents[device];
            let mut steps_since_train = 0usize;
            while !md.env.done() && md.env.current_minute() < seg_end {
                let minute = md.env.current_minute();
                let before = *md.env.account();
                let t0 = Instant::now();
                let action = agent.act(&md.cur);
                let t1 = Instant::now();
                let (reward, done) = md.env.step_into(action, &mut md.next);
                let t2 = Instant::now();
                let after = *md.env.account();
                let hour = minute / 60;
                s.saved[hour] += after.standby_saved_kwh - before.standby_saved_kwh;
                s.standby[hour] += after.standby_total_kwh - before.standby_total_kwh;
                let mut state = pool.pop().unwrap_or_default();
                state.clear();
                state.extend_from_slice(&md.cur);
                let next_state = (!done).then(|| {
                    let mut v = pool.pop().unwrap_or_default();
                    v.clear();
                    v.extend_from_slice(&md.next);
                    v
                });
                let t3 = Instant::now();
                let evicted = agent.remember_evict(Transition {
                    state,
                    action: action.index(),
                    reward,
                    next_state,
                });
                let t4 = Instant::now();
                if let Some(ev) = evicted {
                    pool.push(ev.state);
                    pool.extend(ev.next_state);
                }
                steps_since_train += 1;
                if steps_since_train >= cfg.train_every && agent.ready() {
                    let t5 = Instant::now();
                    let loss = agent.train_step();
                    s.train_ns += ns(t5, Instant::now());
                    s.train_steps += 1;
                    if loss.is_finite() {
                        *loss_sum += loss;
                        *loss_steps += 1;
                    } else {
                        *nonfinite_losses += 1;
                    }
                    steps_since_train = 0;
                }
                std::mem::swap(&mut md.cur, &mut md.next);
                s.steps += 1;
                s.act_ns += ns(t0, t1);
                s.step_ns += ns(t1, t2);
                s.remember_ns += ns(t3, t4);
            }
        }
        s
    }
}
