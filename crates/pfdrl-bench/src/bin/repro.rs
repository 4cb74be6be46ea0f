//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p pfdrl-bench --bin repro -- all
//! cargo run --release -p pfdrl-bench --bin repro -- fig2 fig9 headline
//! cargo run --release -p pfdrl-bench --bin repro -- all --quick
//! ```
//!
//! Results are printed as aligned tables and also written as JSON under
//! `repro_results/` so EXPERIMENTS.md can cite exact numbers.

use pfdrl_bench::bench::{bench_ems_config, run_bench_with, BenchFile, BenchReport};
use pfdrl_bench::{
    clients_config, forecast_config, format_series, format_series_table, quick_config, repro_config,
};
use pfdrl_core::experiment::{
    self, compare_methods, fig10_monetary, fig12_personalization, fig13_forecast_overhead,
    headline, table2_rows, DegradationResult, SensorFaultResult,
};
use pfdrl_core::{
    run_method_resumable, run_method_resume_from, train_forecasters, EmsMethod, Precision,
    ResumableRun, RunResult, SimConfig,
};
use pfdrl_fl::PayloadCodec;
use pfdrl_serve::{
    generate_stream, NdjsonSink, NdjsonSource, ServeConfig, ServeEngine, ServeReport,
    TelemetrySource, VecSource,
};
use pfdrl_store::CheckpointStore;
use serde::Serialize;
use std::fs;
use std::io::BufReader;
use std::time::Instant;

const SEED: u64 = 42;

/// Counts every heap allocation so `repro bench` can report
/// allocations/step; pass-through to the system allocator otherwise.
#[global_allocator]
static ALLOC: pfdrl_bench::alloc::CountingAlloc = pfdrl_bench::alloc::CountingAlloc;

struct Ctx {
    quick: bool,
    out_dir: String,
    checkpoint_dir: Option<String>,
    resume_from: Option<String>,
    crash_after_day: Option<u64>,
    baseline: Option<String>,
    max_regression: Option<f64>,
    /// `bench --phases`: include the per-phase day breakdown rows.
    phases: bool,
    /// `serve --stream <path|->`: NDJSON telemetry replay (`-` =
    /// stdin). Absent: a synthetic stream is generated in memory.
    stream: Option<String>,
    /// `serve --serve-out <path>`: decision log destination.
    serve_out: Option<String>,
    snapshot_every_minutes: Option<u64>,
    crash_after_minute: Option<u64>,
    shards: Option<usize>,
    chunk_minutes: Option<usize>,
    queue_cap: Option<usize>,
    /// `scale-smoke --flat-only`: run only the 669-home SharedSum leg.
    flat_only: bool,
    /// `scale-smoke --hier-only`: run only the 10k-home Hierarchical leg.
    hier_only: bool,
    /// `--precision <f64|f32fast>`: forecast inference precision of the
    /// base configuration (run/serve/headline/figures). Part of the run
    /// identity, so `f32fast` selects its own canary trajectory.
    precision: Precision,
    /// `--compression <raw|q8|q8-global|topk:FRAC>`: federation payload
    /// codec of the base configuration. Part of the run identity —
    /// compressed codecs change the merged bits, so each codec has its
    /// own deterministic trajectory.
    compression: PayloadCodec,
}

impl Ctx {
    fn base(&self) -> SimConfig {
        let mut cfg = if self.quick {
            quick_config(SEED)
        } else {
            repro_config(SEED)
        };
        cfg.precision = self.precision;
        cfg.compression = self.compression;
        cfg
    }

    fn forecast(&self) -> SimConfig {
        let mut cfg = if self.quick {
            quick_config(SEED)
        } else {
            forecast_config(SEED)
        };
        cfg.precision = self.precision;
        cfg.compression = self.compression;
        cfg
    }

    fn save_json(&self, name: &str, value: &impl serde::Serialize) {
        let path = format!("{}/{}.json", self.out_dir, name);
        let json = serde_json::to_string_pretty(value).expect("serializable result");
        fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("  -> {path}");
    }
}

fn banner(name: &str, what: &str) {
    println!("\n=== {name}: {what} ===");
}

fn table1(_ctx: &Ctx) {
    banner("table1", "reward function");
    println!("ground truth  action    reward");
    for gt in pfdrl_data::Mode::ALL {
        for a in pfdrl_data::Mode::ALL {
            println!(
                "{:>12}  {:>7}  {:>7.0}",
                gt.to_string(),
                a.to_string(),
                pfdrl_env::reward(gt, a)
            );
        }
    }
}

fn table2(ctx: &Ctx) {
    banner("table2", "comparison-method feature matrix");
    let rows = table2_rows();
    println!(
        "{:>6}  {:>10} {:>8} {:>11} {:>11} {:>15}",
        "method", "local-area", "privacy", "small-batch", "sharing-EMS", "personalization"
    );
    for (name, area, privacy, small, share, pers) in &rows {
        let mark = |b: &bool| if *b { "yes" } else { "no" };
        println!(
            "{name:>6}  {:>10} {:>8} {:>11} {:>11} {:>15}",
            mark(area),
            mark(privacy),
            mark(small),
            mark(share),
            mark(pers)
        );
    }
    ctx.save_json("table2", &rows);
}

fn fig2(ctx: &Ctx) {
    banner("fig2", "saved standby energy vs shared layers alpha");
    let cfg = ctx.base();
    let alphas: Vec<usize> = if ctx.quick {
        vec![1, 2, 4]
    } else {
        (1..=8).collect()
    };
    let s = experiment::fig2_alpha_sweep(&cfg, &alphas);
    print!("{}", format_series(&s));
    println!("best alpha = {}", s.argmax());
    ctx.save_json("fig2", &s);
}

fn fig3(ctx: &Ctx) {
    banner("fig3", "DFL accuracy vs broadcast frequency beta (hours)");
    let cfg = ctx.forecast();
    let betas: Vec<f64> = if ctx.quick {
        vec![1.0, 12.0, 24.0]
    } else {
        vec![0.1, 0.5, 1.0, 2.0, 6.0, 12.0, 24.0]
    };
    let s = experiment::fig3_beta_sweep(&cfg, &betas);
    print!("{}", format_series(&s));
    println!("best beta = {}", s.argmax());
    ctx.save_json("fig3", &s);
}

fn fig4(ctx: &Ctx) {
    banner(
        "fig4",
        "saved standby energy vs DRL broadcast frequency gamma (hours)",
    );
    let cfg = ctx.base();
    let gammas: Vec<f64> = if ctx.quick {
        vec![6.0, 24.0]
    } else {
        vec![0.1, 0.5, 1.0, 2.0, 6.0, 12.0, 24.0]
    };
    let s = experiment::fig4_gamma_sweep(&cfg, &gammas);
    print!("{}", format_series(&s));
    println!("best gamma = {}", s.argmax());
    ctx.save_json("fig4", &s);
}

fn fig5(ctx: &Ctx) {
    banner("fig5", "CDF of load-forecasting accuracy (LR/SVM/BP/LSTM)");
    let cfg = ctx.forecast();
    let series = experiment::fig5_forecast_cdf(&cfg, 11);
    print!("{}", format_series_table(&series));
    ctx.save_json("fig5", &series);
}

fn fig6(ctx: &Ctx) {
    banner("fig6", "forecast accuracy by hour of day");
    let cfg = ctx.forecast();
    let series = experiment::fig6_accuracy_by_hour(&cfg);
    print!("{}", format_series_table(&series));
    ctx.save_json("fig6", &series);
}

fn fig7(ctx: &Ctx) {
    banner("fig7", "accuracy vs accumulative training days");
    let cfg = ctx.forecast();
    let days: Vec<u64> = if ctx.quick {
        vec![1, 2]
    } else {
        vec![1, 2, 4, 7]
    };
    let series = experiment::fig7_accuracy_by_days(&cfg, &days);
    print!("{}", format_series_table(&series));
    ctx.save_json("fig7", &series);
}

fn fig8(ctx: &Ctx) {
    banner(
        "fig8",
        "accuracy vs number of residences (archetype pool widens past 100)",
    );
    let cfg = if ctx.quick {
        quick_config(SEED)
    } else {
        clients_config(SEED)
    };
    let counts: Vec<usize> = if ctx.quick {
        vec![3, 5]
    } else {
        vec![10, 60, 100, 140]
    };
    let series = experiment::fig8_accuracy_by_clients(&cfg, &counts);
    print!("{}", format_series_table(&series));
    ctx.save_json("fig8", &series);
}

fn figs_9_11_14(ctx: &Ctx) {
    banner("fig9/fig11/fig14", "full five-method comparison");
    let cfg = ctx.base();
    let cmp = compare_methods(&cfg);

    println!("\nfig9: saved kWh per client per day");
    print!("{}", format_series_table(&cmp.fig9_series()));
    println!("\nfig9 (right axis): saved standby fraction per day");
    print!("{}", format_series_table(&cmp.fig9_percentage_series()));
    println!("\nconvergence (first day reaching 80% of converged level):");
    for run in &cmp.runs {
        println!(
            "  {:>6}: day {:?}, converged fraction {:.3}",
            run.method,
            run.days_to_converge(0.8),
            run.converged_saved_fraction()
        );
    }

    println!("\nfig11: saved kWh per client by hour of day");
    print!("{}", format_series_table(&cmp.fig11_series()));

    println!("\nfig14: EMS time overhead (seconds)");
    println!(
        "{:>6}  {:>10}  {:>10}  {:>10}",
        "method", "compute", "comm", "total"
    );
    for row in cmp.fig14_rows() {
        println!(
            "{:>6}  {:>10.2}  {:>10.2}  {:>10.2}",
            row.label,
            row.train_s,
            row.comm_s,
            row.total()
        );
    }
    ctx.save_json("fig9_11_14", &cmp);
}

fn fig10(ctx: &Ctx) {
    banner(
        "fig10",
        "saved monetary cost per client by month (fixed vs variable)",
    );
    let cfg = ctx.base();
    let r = fig10_monetary(&cfg);
    println!("{:>5}  {:>10}  {:>10}", "month", "fixed $", "variable $");
    for (m, (f, v)) in r.monthly_saved_usd.iter().enumerate() {
        println!("{:>5}  {:>10.3}  {:>10.3}", m + 1, f, v);
    }
    let fixed: f64 = r.monthly_saved_usd.iter().map(|(f, _)| f).sum();
    let var: f64 = r.monthly_saved_usd.iter().map(|(_, v)| v).sum();
    println!("yearly: fixed ${fixed:.2}, variable ${var:.2}");
    ctx.save_json("fig10", &r);
}

fn fig12(ctx: &Ctx) {
    banner(
        "fig12",
        "personalized vs not personalized saved energy per client",
    );
    let cfg = ctx.base();
    let r = fig12_personalization(&cfg);
    println!(
        "personalized (PFDRL):      mean {:.3} kWh, std {:.3}",
        r.personalized_mean, r.personalized_std
    );
    println!(
        "not personalized (FRL):    mean {:.3} kWh, std {:.3}",
        r.not_personalized_mean, r.not_personalized_std
    );
    ctx.save_json("fig12", &r);
}

fn fig13(ctx: &Ctx) {
    banner("fig13", "load-forecasting time overhead (seconds)");
    let cfg = ctx.forecast();
    let rows = fig13_forecast_overhead(&cfg);
    println!(
        "{:>6}  {:>10}  {:>10}  {:>10}",
        "method", "train", "test", "comm"
    );
    for r in &rows {
        println!(
            "{:>6}  {:>10.2}  {:>10.2}  {:>10.2}",
            r.label, r.train_s, r.test_s, r.comm_s
        );
    }
    ctx.save_json("fig13", &rows);
}

fn degradation(ctx: &Ctx) -> DegradationResult {
    banner(
        "degradation",
        "PFDRL under residence churn and message loss",
    );
    let cfg = ctx.base();
    let rates: Vec<(f64, f64)> = if ctx.quick {
        vec![(0.0, 0.0), (0.2, 0.2), (0.5, 0.5)]
    } else {
        (0..=5).map(|i| (i as f64 * 0.1, i as f64 * 0.1)).collect()
    };
    let r = experiment::degradation_sweep(&cfg, &rates);
    println!(
        "fault-free baseline: accuracy {:.3}, saved fraction {:.3}",
        r.baseline_accuracy, r.baseline_saved_fraction
    );
    println!(
        "{:>8}  {:>6}  {:>9}  {:>11}  {:>9}",
        "dropout", "loss", "accuracy", "saved-frac", "retention"
    );
    for row in &r.rows {
        println!(
            "{:>7.0}%  {:>5.0}%  {:>9.3}  {:>11.3}  {:>8.1}%",
            100.0 * row.dropout_rate,
            100.0 * row.loss_rate,
            row.forecast_accuracy,
            row.saved_fraction,
            100.0 * row.retention
        );
    }
    ctx.save_json("degradation", &r);
    r
}

fn sensor_degradation(ctx: &Ctx) -> SensorFaultResult {
    banner(
        "sensor-degradation",
        "PFDRL under hostile telemetry (sensor-fault storms)",
    );
    let cfg = ctx.base();
    let severities: Vec<f64> = if ctx.quick {
        vec![0.0, 0.5]
    } else {
        (0..=5).map(|i| i as f64 * 0.2).collect()
    };
    let r = experiment::sensor_fault_sweep(&cfg, &severities);
    println!(
        "fault-free baseline: saved fraction {:.3}",
        r.baseline_saved_fraction
    );
    println!(
        "{:>8}  {:>9}  {:>11}  {:>10}  {:>11}  {:>9}",
        "severity", "imputed", "transitions", "quarantine", "saved-frac", "retention"
    );
    for row in &r.rows {
        println!(
            "{:>7.0}%  {:>9}  {:>11}  {:>10}  {:>11.3}  {:>8.1}%",
            100.0 * row.severity,
            row.imputed_minutes,
            row.health_transitions,
            row.quarantined_home_days,
            row.saved_fraction,
            100.0 * row.retention
        );
    }
    // Regression gate: the severity-0 row is the fault-free
    // configuration and must match the baseline down to the last bit —
    // any drift means the dormant health machinery perturbed a plain run.
    if let Some(clean) = r.rows.iter().find(|row| row.severity == 0.0) {
        if clean.saved_fraction.to_bits() != r.baseline_saved_fraction.to_bits() {
            eprintln!(
                "FAIL: fault-free sweep row ({}) is not bitwise equal to the baseline ({})",
                clean.saved_fraction, r.baseline_saved_fraction
            );
            std::process::exit(1);
        }
        println!("fault-free row is bitwise equal to the baseline");
    }
    ctx.save_json("sensor-degradation", &r);
    r
}

/// `serve` target: the streaming service mode. Replays an NDJSON
/// telemetry stream (`--stream <path|->`, or a synthetic fleet stream
/// when absent) through [`ServeEngine`], writing the decision log to
/// `--serve-out` (default `<out-dir>/decisions.ndjson`). With
/// `--checkpoint-dir` the live state is snapshotted every
/// `--snapshot-every-minutes` simulated minutes and the next
/// invocation auto-resumes from the newest snapshot;
/// `--crash-after-minute` hard-aborts mid-stream for the recovery
/// smoke tests.
fn serve(ctx: &Ctx) -> ServeReport {
    banner("serve", "streaming ingestion + online inference");
    let cfg = ctx.base();
    let mut scfg = ServeConfig::default();
    if let Some(v) = ctx.chunk_minutes {
        scfg.chunk_minutes = v;
    }
    if let Some(v) = ctx.snapshot_every_minutes {
        scfg.snapshot_every_minutes = v;
    }
    if let Some(v) = ctx.shards {
        scfg.n_shards = v;
    }
    if let Some(v) = ctx.queue_cap {
        scfg.queue_capacity = v;
    }
    scfg.abort_after_minute = ctx.crash_after_minute;

    let store = ctx.checkpoint_dir.as_ref().map(|dir| {
        CheckpointStore::open(dir, 4).unwrap_or_else(|e| {
            eprintln!("opening checkpoint dir {dir}: {e}");
            std::process::exit(1);
        })
    });
    let snap_path = match (&ctx.resume_from, &store) {
        (Some(path), _) => Some(std::path::PathBuf::from(path)),
        (None, Some(store)) => store.latest().unwrap_or_else(|e| {
            eprintln!("scanning checkpoint dir: {e}");
            std::process::exit(1);
        }),
        (None, None) => None,
    };
    let mut engine = match snap_path {
        Some(path) => {
            let snap = CheckpointStore::load(&path).unwrap_or_else(|e| {
                eprintln!("loading snapshot {}: {e}", path.display());
                std::process::exit(1);
            });
            let engine = ServeEngine::resume(cfg.clone(), scfg, EmsMethod::Pfdrl, &snap, store)
                .unwrap_or_else(|e| {
                    eprintln!("resuming serve from {}: {e}", path.display());
                    std::process::exit(1);
                });
            println!("resumed from serve snapshot at minute {}", engine.cursor());
            engine
        }
        None => {
            println!("serving from scratch");
            let forecast = train_forecasters(&cfg, EmsMethod::Pfdrl);
            ServeEngine::new(cfg.clone(), scfg, EmsMethod::Pfdrl, forecast, store)
        }
    };

    let mut source: Box<dyn TelemetrySource> = match ctx.stream.as_deref() {
        Some("-") => Box::new(NdjsonSource::new(BufReader::new(std::io::stdin()))),
        Some(path) => {
            let file = fs::File::open(path).unwrap_or_else(|e| {
                eprintln!("opening stream {path}: {e}");
                std::process::exit(1);
            });
            Box::new(NdjsonSource::new(BufReader::new(file)))
        }
        None => {
            let mut lines = Vec::new();
            generate_stream(&cfg, cfg.eval_start_day - 1, cfg.eval_days + 1, &mut lines);
            println!(
                "no --stream given: generated a synthetic {}-line fleet stream",
                lines.len()
            );
            Box::new(VecSource::new(lines))
        }
    };
    let out_path = ctx
        .serve_out
        .clone()
        .unwrap_or_else(|| format!("{}/decisions.ndjson", ctx.out_dir));
    let out_file = fs::File::create(&out_path).unwrap_or_else(|e| {
        eprintln!("creating decision log {out_path}: {e}");
        std::process::exit(1);
    });
    let mut sink = NdjsonSink::new(std::io::BufWriter::new(out_file));

    let report = engine.run(source.as_mut(), &mut sink).unwrap_or_else(|e| {
        eprintln!("serve failed: {e}");
        std::process::exit(1);
    });
    println!(
        "served {} simulated minutes ({} completed days): {} decisions \
         in {:.2}s ({:.0}/s), final saved fraction {:.3}",
        report.served_minutes,
        report.completed_days,
        report.decisions,
        report.wall_s,
        report.decisions_per_sec,
        report.final_saved_fraction
    );
    println!(
        "shed: {} stale, {} out-of-span, {} unknown-home, {} malformed; \
         {} backpressure drains, {} sink retries, {} snapshots",
        report.counters.shed_stale,
        report.counters.shed_out_of_span,
        report.counters.shed_unknown_home,
        report.counters.shed_malformed,
        report.counters.rejected_backpressure,
        report.counters.sink_retries,
        report.snapshots_written
    );
    println!("  -> {out_path}");
    ctx.save_json("serve", &report);
    report
}

/// Machine-readable summary of one checkpointable run (`run` target,
/// also embedded in the `--json` session summary).
#[derive(Debug, Clone, Serialize)]
struct RunSummary {
    /// Hex fingerprint of the configuration ([`SimConfig::run_hash`]).
    config_hash: String,
    method: String,
    /// Day this process resumed from, if a snapshot was used.
    resumed_from_day: Option<u64>,
    /// The deterministic (wall-clock-free) run outcome.
    result: RunResult,
}

/// `run` target: one PFDRL run under the CLI's checkpoint flags —
/// `--checkpoint-dir` enables snapshots (auto-resuming from the newest
/// one), `--resume-from` picks an explicit snapshot file, and
/// `--crash-after-day` simulates a hard kill for recoverability tests.
fn run_checkpointed(ctx: &Ctx) -> RunSummary {
    banner("run", "single PFDRL run (checkpointable / resumable)");
    let mut cfg = ctx.base();
    cfg.checkpoint.dir = ctx.checkpoint_dir.clone();
    cfg.checkpoint.abort_after_days = ctx.crash_after_day;
    let outcome = match &ctx.resume_from {
        Some(path) => run_method_resume_from(&cfg, EmsMethod::Pfdrl, path),
        None => run_method_resumable(&cfg, EmsMethod::Pfdrl),
    };
    let ResumableRun {
        run,
        resumed_from_day,
    } = outcome.unwrap_or_else(|e| {
        eprintln!("run failed: {e}");
        std::process::exit(1);
    });
    match resumed_from_day {
        Some(day) => println!("resumed from snapshot at day {day}"),
        None => println!("ran from scratch"),
    }
    println!(
        "saved standby fraction {:.3} over {} eval days, {} comm bytes \
         ({} logical before compression)",
        run.converged_saved_fraction(),
        run.ems.daily_saved_fraction.len(),
        run.ems.comm_bytes,
        run.ems.comm_logical_bytes
    );
    let summary = RunSummary {
        config_hash: format!("{:#018x}", cfg.run_hash()),
        method: run.method.clone(),
        resumed_from_day,
        result: run.result(),
    };
    ctx.save_json("run", &summary);
    summary
}

fn run_headline(ctx: &Ctx) {
    banner("headline", "Section 5 headline numbers");
    let cfg = ctx.base();
    let h = headline(&cfg);
    println!(
        "load-forecasting accuracy:  {:.1}%  (paper: 92%)",
        100.0 * h.forecast_accuracy
    );
    println!(
        "saved standby energy/day:   {:.1}%  (paper: 98%)",
        100.0 * h.saved_standby_fraction
    );
    println!(
        "comfort violations:         {} of {} minutes",
        h.comfort_violation_minutes, h.total_minutes
    );
    ctx.save_json("headline", &h);
}

/// Committed canary trajectories for the `precision-canary` target:
/// per precision mode, the converged saved-standby fraction of the
/// fixed-seed EMS run *and* the mean forecast accuracy of the trained
/// fleet over the evaluation span. The saved fraction is
/// action-quantized (sub-µW forecast deltas rarely flip a discrete EMS
/// action — at these scales the two modes land on the same value, which
/// is itself pinned), so the forecast accuracy is the row with teeth:
/// it moves whenever a single prediction bit changes, making the two
/// modes' canaries observably distinct. The full-scale f64 saved
/// fraction is the same `bench_ems_config()` canary BENCH_*.json has
/// always pinned; the quick rows use `tiny(42)` with the forecast
/// method switched to LSTM, since the tiny config's LR forecaster has
/// no f32 path. Any drift in any literal is a correctness regression,
/// not noise — every run here is bit-deterministic.
const CANARY_F64_FULL: (f64, f64) = (0.39476153139803727, 0.8000332742645503);
const CANARY_F32_FULL: (f64, f64) = (0.39476153139803727, 0.8000332827694779);
const CANARY_F64_QUICK: (f64, f64) = (0.49031103179286195, 0.7775601629068307);
const CANARY_F32_QUICK: (f64, f64) = (0.49031103179286195, 0.7775601875591515);

/// `precision-canary [--quick]` target: runs the fixed-seed trajectory
/// and forecast evaluation at both precisions (F64 one thread wide and
/// four wide) and fails the process
/// when any observable diverges from its committed canary by a single
/// bit.
fn precision_canary(ctx: &Ctx) -> PrecisionCanaryResult {
    banner(
        "precision-canary",
        "fixed-seed F64 + F32Fast trajectories vs committed canaries",
    );
    let mut cfg = if ctx.quick {
        let mut c = quick_config(SEED);
        // tiny() uses the LR forecaster; the canary must exercise the
        // LSTM path, the one backend with a reduced-precision mirror.
        c.forecast_method = pfdrl_forecast::ForecastMethod::Lstm;
        c
    } else {
        bench_ems_config()
    };
    let (want_f64, want_f32) = if ctx.quick {
        (CANARY_F64_QUICK, CANARY_F32_QUICK)
    } else {
        (CANARY_F64_FULL, CANARY_F32_FULL)
    };
    // `width` threads run every parallel call; 0 is the default width.
    let mut observe = |precision: Precision, width: usize| -> (f64, f64) {
        cfg.precision = precision;
        let cfg = &cfg;
        rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .expect("a thread width always builds")
            .install(|| {
                let saved =
                    pfdrl_core::run_method(cfg, EmsMethod::Pfdrl).converged_saved_fraction();
                let forecast = train_forecasters(cfg, EmsMethod::Pfdrl);
                let accuracy = pfdrl_core::evaluate_forecast(cfg, &forecast).mean;
                (saved, accuracy)
            })
    };
    // The default path is pinned one thread wide and four wide: the
    // canary must not depend on how many threads ran it.
    let got_f64 = observe(Precision::F64, 1);
    let got_f64_wide = observe(Precision::F64, 4);
    let got_f32 = observe(Precision::F32Fast, 0);
    let mut failed = false;
    for (mode, got, want) in [
        ("F64 (1 thread)", got_f64, want_f64),
        ("F64 (4 threads)", got_f64_wide, want_f64),
        ("F32Fast", got_f32, want_f32),
    ] {
        for (what, got, want) in [
            ("saved fraction", got.0, want.0),
            ("forecast accuracy", got.1, want.1),
        ] {
            if got.to_bits() == want.to_bits() {
                println!("{mode}: {what} {got} matches the committed canary bit for bit");
            } else {
                eprintln!("FAIL: {mode} {what} {got:?} != committed canary {want:?}");
                failed = true;
            }
        }
    }
    let result = PrecisionCanaryResult {
        quick: ctx.quick,
        f64_saved_fraction: got_f64.0,
        f64_forecast_accuracy: got_f64.1,
        f32_saved_fraction: got_f32.0,
        f32_forecast_accuracy: got_f32.1,
    };
    ctx.save_json("precision_canary", &result);
    if failed {
        std::process::exit(1);
    }
    result
}

#[derive(Debug, Clone, Serialize)]
struct PrecisionCanaryResult {
    quick: bool,
    f64_saved_fraction: f64,
    f64_forecast_accuracy: f64,
    f32_saved_fraction: f64,
    f32_forecast_accuracy: f64,
}

/// Per-codec accuracy envelopes for the `compression-canary` target:
/// how far each compressed codec may move the fixed-seed saved-standby
/// fraction and forecast accuracy from the `Raw` reference — the same
/// codec shapes the `federation_comp` bench rows measure. The bounds
/// carry ~2× headroom over the measured deltas (DESIGN.md §16): int8
/// quantization is nearly free (|Δsaved| ≤ 1.2e-2 quick / 7.6e-6 full,
/// |Δaccuracy| ≤ 7.7e-3), while `TopK{0.1}` keeps the EMS saved
/// fraction (≤ 1.2e-1 quick / 3.2e-3 full) but costs the *forecaster*
/// federation up to 0.24 accuracy — 90% sparsification breaks
/// supervised model averaging long before it breaks the DRL. `Raw`
/// itself is pinned bit-for-bit against the same committed literals
/// the `precision-canary` target has always used.
const CANARY_CODECS: [(PayloadCodec, f64, f64); 2] = [
    (
        PayloadCodec::QuantizedI8 {
            per_layer_scale: true,
        },
        0.05,
        0.03,
    ),
    (PayloadCodec::TopK { fraction: 0.1 }, 0.25, 0.35),
];

/// One `compression-canary` observation row.
#[derive(Debug, Clone, Serialize)]
struct CompressionCanaryRow {
    codec: String,
    saved_fraction: f64,
    forecast_accuracy: f64,
    /// `saved_fraction - raw.saved_fraction`.
    saved_delta: f64,
    /// `forecast_accuracy - raw.forecast_accuracy`.
    accuracy_delta: f64,
}

#[derive(Debug, Clone, Serialize)]
struct CompressionCanaryResult {
    quick: bool,
    rows: Vec<CompressionCanaryRow>,
}

/// `compression-canary [--quick]` target: runs the fixed-seed
/// trajectory and forecast evaluation under every payload codec. The
/// default `Raw` codec must reproduce the committed f64 canary bit for
/// bit (compression off is bit-identical, not merely close); the
/// compressed codecs must stay inside the committed accuracy
/// envelopes.
fn compression_canary(ctx: &Ctx) -> CompressionCanaryResult {
    banner(
        "compression-canary",
        "fixed-seed trajectories per payload codec vs committed envelopes",
    );
    let mut cfg = if ctx.quick {
        let mut c = quick_config(SEED);
        // Same workload as `precision-canary --quick` (LSTM, not the
        // tiny LR default) so the Raw rows share its committed literal.
        c.forecast_method = pfdrl_forecast::ForecastMethod::Lstm;
        c
    } else {
        bench_ems_config()
    };
    let want_raw = if ctx.quick {
        CANARY_F64_QUICK
    } else {
        CANARY_F64_FULL
    };
    let mut observe = |codec: PayloadCodec| -> (f64, f64) {
        cfg.compression = codec;
        let saved = pfdrl_core::run_method(&cfg, EmsMethod::Pfdrl).converged_saved_fraction();
        let forecast = train_forecasters(&cfg, EmsMethod::Pfdrl);
        let accuracy = pfdrl_core::evaluate_forecast(&cfg, &forecast).mean;
        (saved, accuracy)
    };
    let mut failed = false;
    let raw = observe(PayloadCodec::Raw);
    for (what, got, want) in [
        ("saved fraction", raw.0, want_raw.0),
        ("forecast accuracy", raw.1, want_raw.1),
    ] {
        if got.to_bits() == want.to_bits() {
            println!("raw: {what} {got} matches the committed canary bit for bit");
        } else {
            eprintln!("FAIL: raw {what} {got:?} != committed canary {want:?}");
            failed = true;
        }
    }
    let mut rows = vec![CompressionCanaryRow {
        codec: "raw".into(),
        saved_fraction: raw.0,
        forecast_accuracy: raw.1,
        saved_delta: 0.0,
        accuracy_delta: 0.0,
    }];
    for (codec, saved_tol, accuracy_tol) in CANARY_CODECS {
        let (saved, accuracy) = observe(codec);
        let (saved_delta, accuracy_delta) = (saved - raw.0, accuracy - raw.1);
        for (what, delta, tol) in [
            ("saved fraction", saved_delta, saved_tol),
            ("forecast accuracy", accuracy_delta, accuracy_tol),
        ] {
            if delta.abs() <= tol {
                println!(
                    "{}: {what} delta {delta:+.2e} within the committed envelope {tol:.0e}",
                    codec.label()
                );
            } else {
                eprintln!(
                    "FAIL: {} {what} delta {delta:+.2e} exceeds the committed envelope {tol:.0e}",
                    codec.label()
                );
                failed = true;
            }
        }
        rows.push(CompressionCanaryRow {
            codec: codec.label().into(),
            saved_fraction: saved,
            forecast_accuracy: accuracy,
            saved_delta,
            accuracy_delta,
        });
    }
    let result = CompressionCanaryResult {
        quick: ctx.quick,
        rows,
    };
    ctx.save_json("compression_canary", &result);
    if failed {
        std::process::exit(1);
    }
    result
}

/// `bench` target: the fixed-workload perf harness. Emits
/// `BENCH_10.json` embedding the current measurement, the committed
/// pre-PR baseline (when `--baseline <file>` points at one), and the
/// headline speedups. `--phases` adds the per-phase day breakdown.
fn bench(ctx: &Ctx) {
    banner(
        "bench",
        "kernel micro-benchmarks + fixed-seed EMS day + federation scaling + serve throughput",
    );
    let current = run_bench_with(ctx.quick, ctx.phases);
    let baseline: Option<BenchReport> = ctx.baseline.as_ref().map(|path| {
        let text =
            fs::read_to_string(path).unwrap_or_else(|e| panic!("reading baseline {path}: {e}"));
        let file: BenchFile =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("parsing baseline {path}: {e}"));
        file.current
    });
    let file = BenchFile::from_parts(current, baseline);
    if let (Some(ems), Some(ts)) = (file.speedup_ems_day, file.speedup_train_step) {
        let steady = file
            .speedup_ems_steady_day
            .map(|s| format!(", steady day {s:.2}x"))
            .unwrap_or_default();
        println!("speedup vs baseline: ems_day {ems:.2}x, train_step {ts:.2}x{steady}");
    }
    ctx.save_json("BENCH_10", &file);
    if let (Some(factor), Some(base)) = (ctx.max_regression, file.baseline.as_ref()) {
        gate_regression(&file.current, base, factor);
    }
}

/// CI regression gate: fails the process when any workload rate is more
/// than `factor`x slower than the committed baseline. Rate-based rows
/// (kernel ns/iter, train_step steps/sec) compare across `--quick` and
/// full sessions; the end-to-end EMS day is only compared when both
/// sides ran the same workload, since `--quick` swaps the config.
fn gate_regression(current: &BenchReport, base: &BenchReport, factor: f64) {
    let mut failures = Vec::new();
    for row in &current.kernels {
        if let Some(b) = base.kernels.iter().find(|b| b.name == row.name) {
            if row.ns_per_iter > b.ns_per_iter * factor {
                failures.push(format!(
                    "kernel {}: {:.0} ns/iter vs baseline {:.0} (limit {:.0})",
                    row.name,
                    row.ns_per_iter,
                    b.ns_per_iter,
                    b.ns_per_iter * factor
                ));
            }
        }
    }
    if current.train_step.steps_per_sec * factor < base.train_step.steps_per_sec {
        failures.push(format!(
            "train_step: {:.0} steps/s vs baseline {:.0} (limit {:.0})",
            current.train_step.steps_per_sec,
            base.train_step.steps_per_sec,
            base.train_step.steps_per_sec / factor
        ));
    }
    if current.quick == base.quick && current.ems_day.seconds > base.ems_day.seconds * factor {
        failures.push(format!(
            "ems_day: {:.2}s vs baseline {:.2}s (limit {:.2}s)",
            current.ems_day.seconds,
            base.ems_day.seconds,
            base.ems_day.seconds * factor
        ));
    }
    // Steady-state day wall-clock (median of three days; zero in
    // baselines recorded before the field existed).
    if current.quick == base.quick
        && base.ems_day.steady_seconds > 0.0
        && current.ems_day.steady_seconds > base.ems_day.steady_seconds * factor
    {
        failures.push(format!(
            "ems_day steady day: {:.2}s vs baseline {:.2}s (limit {:.2}s)",
            current.ems_day.steady_seconds,
            base.ems_day.steady_seconds,
            base.ems_day.steady_seconds * factor
        ));
    }
    // Imputation-active steady day (sensor-fault storm) wall-clock.
    if current.quick == base.quick
        && base.ems_day.imputed_steady_seconds > 0.0
        && current.ems_day.imputed_steady_seconds > base.ems_day.imputed_steady_seconds * factor
    {
        failures.push(format!(
            "ems_day imputation-active steady day: {:.2}s vs baseline {:.2}s (limit {:.2}s)",
            current.ems_day.imputed_steady_seconds,
            base.ems_day.imputed_steady_seconds,
            base.ems_day.imputed_steady_seconds * factor
        ));
    }
    // F32Fast rows: the reduced-precision end-to-end day and steady day
    // are gated exactly like their f64 twins (zeros in baselines
    // recorded before the mode existed are skipped).
    if current.quick == base.quick
        && base.ems_day.f32_seconds > 0.0
        && current.ems_day.f32_seconds > base.ems_day.f32_seconds * factor
    {
        failures.push(format!(
            "ems_day F32Fast: {:.2}s vs baseline {:.2}s (limit {:.2}s)",
            current.ems_day.f32_seconds,
            base.ems_day.f32_seconds,
            base.ems_day.f32_seconds * factor
        ));
    }
    if current.quick == base.quick
        && base.ems_day.steady_day_f32_seconds > 0.0
        && current.ems_day.steady_day_f32_seconds > base.ems_day.steady_day_f32_seconds * factor
    {
        failures.push(format!(
            "ems_day F32Fast steady day: {:.2}s vs baseline {:.2}s (limit {:.2}s)",
            current.ems_day.steady_day_f32_seconds,
            base.ems_day.steady_day_f32_seconds,
            base.ems_day.steady_day_f32_seconds * factor
        ));
    }
    // Steady-state day allocation budgets: counts are workload-determined
    // (not wall-clock), so they compare whenever both sides ran the same
    // config. Baselines recorded before the fields existed carry zeros
    // and are skipped.
    if current.quick == base.quick {
        for (path, cur, bas) in [
            (
                "steady_allocations",
                current.ems_day.steady_allocations,
                base.ems_day.steady_allocations,
            ),
            (
                "steady_allocated_bytes",
                current.ems_day.steady_allocated_bytes,
                base.ems_day.steady_allocated_bytes,
            ),
            (
                "imputed_steady_allocations",
                current.ems_day.imputed_steady_allocations,
                base.ems_day.imputed_steady_allocations,
            ),
            (
                "imputed_steady_allocated_bytes",
                current.ems_day.imputed_steady_allocated_bytes,
                base.ems_day.imputed_steady_allocated_bytes,
            ),
        ] {
            if bas > 0 && cur as f64 > bas as f64 * factor {
                failures.push(format!(
                    "ems_day {path}: {cur} vs baseline {bas} (limit {:.0})",
                    bas as f64 * factor
                ));
            }
        }
    }
    // Federation rows are per-round rates over a fixed workload at each
    // N, so they also compare across --quick and full sessions; sizes
    // missing on either side (quick sweeps a subset) are skipped.
    for row in &current.federation {
        if let Some(b) = base.federation.iter().find(|b| b.n == row.n) {
            for (path, cur, bas) in [
                ("per_home", row.per_home_ns, b.per_home_ns),
                ("shared", row.shared_ns, b.shared_ns),
            ] {
                if cur > bas * factor {
                    failures.push(format!(
                        "federation n={} {path}: {cur:.0} ns/round vs baseline {bas:.0} (limit {:.0})",
                        row.n,
                        bas * factor
                    ));
                }
            }
        }
    }
    // Hierarchical federation rows: per-round rates over a fixed
    // workload at each (N, shard count); points missing on either side
    // (quick sweeps different sizes) are skipped. The flat reference
    // column is already gated through the federation rows above.
    for row in &current.federation_hier {
        if let Some(b) = base
            .federation_hier
            .iter()
            .find(|b| b.n == row.n && b.shards == row.shards)
        {
            if row.hier_ns > b.hier_ns * factor {
                failures.push(format!(
                    "federation_hier n={} shards={}: {:.0} ns/round vs baseline {:.0} (limit {:.0})",
                    row.n,
                    row.shards,
                    row.hier_ns,
                    b.hier_ns,
                    b.hier_ns * factor
                ));
            }
        }
    }
    // Compressed-federation rows: per-round rates at each (codec, n,
    // shards) point; points missing on either side (quick sweeps
    // smaller fleets) are skipped. The byte columns are workload-
    // determined, not wall-clock — on a matched point the wire bytes
    // must be *identical*, so any drift is a codec correctness
    // regression, not noise.
    for row in &current.federation_comp {
        if let Some(b) = base
            .federation_comp
            .iter()
            .find(|b| b.codec == row.codec && b.n == row.n && b.shards == row.shards)
        {
            if row.round_ns > b.round_ns * factor {
                failures.push(format!(
                    "federation_comp {} n={} shards={}: {:.0} ns/round vs baseline {:.0} (limit {:.0})",
                    row.codec,
                    row.n,
                    row.shards,
                    row.round_ns,
                    b.round_ns,
                    b.round_ns * factor
                ));
            }
            if row.comm_bytes_per_round != b.comm_bytes_per_round
                || row.logical_bytes_per_round != b.logical_bytes_per_round
            {
                failures.push(format!(
                    "federation_comp {} n={} shards={}: wire/logical bytes {}/{} per round \
                     vs baseline {}/{} — byte accounting must be bit-deterministic",
                    row.codec,
                    row.n,
                    row.shards,
                    row.comm_bytes_per_round,
                    row.logical_bytes_per_round,
                    b.comm_bytes_per_round,
                    b.logical_bytes_per_round
                ));
            }
        }
    }
    // Serve throughput: rate-based, but over a fleet-size-dependent
    // workload — compare only when both sides served the same fleet.
    // Baselines recorded before the row existed are skipped.
    if let (Some(cur), Some(bas)) = (current.serve.as_ref(), base.serve.as_ref()) {
        if cur.homes == bas.homes && cur.decisions_per_sec * factor < bas.decisions_per_sec {
            failures.push(format!(
                "serve ({} homes): {:.0} decisions/s vs baseline {:.0} (limit {:.0})",
                cur.homes,
                cur.decisions_per_sec,
                bas.decisions_per_sec,
                bas.decisions_per_sec / factor
            ));
        }
    }
    // Per-phase day rows (`--phases`): wall-clock over a fixed per-day
    // workload; matching phase names compare when both sides ran the
    // same config. Absent rows (either side skipped --phases) skip.
    if current.quick == base.quick {
        for row in &current.phases {
            if let Some(b) = base.phases.iter().find(|b| b.phase == row.phase) {
                if b.seconds > 0.0 && row.seconds > b.seconds * factor {
                    failures.push(format!(
                        "phase {}: {:.3}s vs baseline {:.3}s (limit {:.3}s)",
                        row.phase,
                        row.seconds,
                        b.seconds,
                        b.seconds * factor
                    ));
                }
            }
        }
    }
    if failures.is_empty() {
        println!("regression gate: all workloads within {factor:.1}x of baseline");
    } else {
        for f in &failures {
            eprintln!("regression gate FAILED: {f}");
        }
        std::process::exit(1);
    }
}

/// `scale-smoke` target: fleet-scale end-to-end proof, two legs. The
/// flat leg is a 669-residence, single-device, one-evaluation-day PFDRL
/// run under the O(N) `SharedSum` fast path — the fleet size the
/// paper's dataset covers (669 households), trimmed to one day and one
/// device so CI can afford to prove the scale-out path end to end. The
/// hierarchical leg is the same workload widened to 10 000 homes under
/// `Hierarchical { shards: 32 }`, with a per-shard resident-payload
/// budget (`max_shard_bytes`) that `validate()` enforces *before* any
/// allocation happens. `--flat-only` / `--hier-only` select one leg, so
/// CI can time them as separate steps.
fn scale_smoke(ctx: &Ctx) {
    #[derive(Debug, Serialize)]
    struct ScaleSmoke {
        n_residences: usize,
        eval_days: u64,
        seconds: f64,
        saved_fraction: f64,
        comm_bytes: u64,
    }
    if !ctx.hier_only {
        banner("scale-smoke", "669-home single-day EMS under SharedSum");
        let mut cfg = SimConfig::tiny(SEED);
        cfg.n_residences = 669;
        cfg.devices = vec![pfdrl_data::DeviceType::Tv];
        cfg.eval_days = 1;
        cfg.aggregation = pfdrl_core::AggregationMode::SharedSum;
        cfg.validate();
        let t0 = Instant::now();
        let run = pfdrl_core::run_method(&cfg, EmsMethod::Pfdrl);
        let seconds = t0.elapsed().as_secs_f64();
        let saved_fraction = run.converged_saved_fraction();
        println!(
            "669 homes, 1 day: {seconds:.1}s wall, saved fraction {saved_fraction:.3}, {} comm bytes",
            run.ems.comm_bytes
        );
        ctx.save_json(
            "scale_smoke",
            &ScaleSmoke {
                n_residences: cfg.n_residences,
                eval_days: cfg.eval_days,
                seconds,
                saved_fraction,
                comm_bytes: run.ems.comm_bytes,
            },
        );
    }
    if !ctx.flat_only {
        #[derive(Debug, Serialize)]
        struct HierScaleSmoke {
            n_residences: usize,
            eval_days: u64,
            shards: usize,
            max_shard_bytes: u64,
            estimated_update_bytes: u64,
            seconds: f64,
            saved_fraction: f64,
            comm_bytes: u64,
        }
        banner(
            "scale-smoke",
            "10k-home single-day EMS under Hierarchical (32 shards)",
        );
        let shards = 32;
        let mut cfg = SimConfig::tiny(SEED);
        cfg.n_residences = 10_000;
        cfg.devices = vec![pfdrl_data::DeviceType::Tv];
        cfg.eval_days = 1;
        cfg.aggregation = pfdrl_core::AggregationMode::Hierarchical {
            shards,
            assignment: pfdrl_fl::ShardAssignment::RoundRobin,
        };
        // ~313 homes/shard x ~2.4 KiB/update ≈ 0.75 MiB resident per
        // shard; a 4 MiB budget passes with headroom while still
        // rejecting (at validate() time, before any allocation) a
        // mis-sized plan that would concentrate the fleet.
        cfg.max_shard_bytes = 4 * 1024 * 1024;
        cfg.validate();
        let t0 = Instant::now();
        let run = pfdrl_core::run_method(&cfg, EmsMethod::Pfdrl);
        let seconds = t0.elapsed().as_secs_f64();
        let saved_fraction = run.converged_saved_fraction();
        println!(
            "10000 homes, 1 day, {shards} shards: {seconds:.1}s wall, \
             saved fraction {saved_fraction:.3}, {} comm bytes",
            run.ems.comm_bytes
        );
        ctx.save_json(
            "scale_smoke_hier",
            &HierScaleSmoke {
                n_residences: cfg.n_residences,
                eval_days: cfg.eval_days,
                shards,
                max_shard_bytes: cfg.max_shard_bytes,
                estimated_update_bytes: cfg.estimated_update_bytes(),
                seconds,
                saved_fraction,
                comm_bytes: run.ems.comm_bytes,
            },
        );
    }
}

/// Per-target wall time, for the `--json` session summary.
#[derive(Debug, Serialize)]
struct TargetTiming {
    target: String,
    seconds: f64,
}

/// The `--json` session summary, printed as the last stdout line so
/// scripts can `tail -n 1 | python3 -m json.tool` it.
#[derive(Debug, Serialize)]
struct SessionSummary {
    quick: bool,
    /// Hex fingerprint of the base configuration.
    config_hash: String,
    /// [`PayloadCodec::label`] of the base configuration's federation
    /// payload codec.
    compression: String,
    total_seconds: f64,
    timings: Vec<TargetTiming>,
    /// EMS-phase wire bytes (post-compression) of the `run` target,
    /// when it executed.
    ems_comm_bytes: Option<u64>,
    /// EMS-phase logical (pre-compression) bytes of the same run.
    ems_comm_logical_bytes: Option<u64>,
    /// Present when the `run` target executed.
    run: Option<RunSummary>,
    /// Present when the `serve` target executed.
    serve: Option<ServeReport>,
    /// Present when the `degradation` target executed.
    degradation: Option<DegradationResult>,
    /// Present when the `sensor-degradation` target executed.
    sensor_degradation: Option<SensorFaultResult>,
}

fn flag_value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> String {
    it.next().cloned().unwrap_or_else(|| {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut json = false;
    let mut out_dir = "repro_results".to_string();
    let mut checkpoint_dir: Option<String> = None;
    let mut resume_from: Option<String> = None;
    let mut crash_after_day: Option<u64> = None;
    let mut baseline: Option<String> = None;
    let mut max_regression: Option<f64> = None;
    let mut phases = false;
    let mut stream: Option<String> = None;
    let mut serve_out: Option<String> = None;
    let mut snapshot_every_minutes: Option<u64> = None;
    let mut crash_after_minute: Option<u64> = None;
    let mut shards: Option<usize> = None;
    let mut chunk_minutes: Option<usize> = None;
    let mut queue_cap: Option<usize> = None;
    let mut flat_only = false;
    let mut hier_only = false;
    let mut precision = Precision::F64;
    let mut compression = PayloadCodec::Raw;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.iter();
    fn parsed<T: std::str::FromStr>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> T {
        let v = flag_value(it, flag);
        v.parse().unwrap_or_else(|_| {
            eprintln!("{flag} needs a number, got {v:?}");
            std::process::exit(2);
        })
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            "--phases" => phases = true,
            "--flat-only" => flat_only = true,
            "--hier-only" => hier_only = true,
            "--out-dir" => out_dir = flag_value(&mut it, a),
            "--checkpoint-dir" => checkpoint_dir = Some(flag_value(&mut it, a)),
            "--resume-from" => resume_from = Some(flag_value(&mut it, a)),
            "--baseline" => baseline = Some(flag_value(&mut it, a)),
            "--stream" => stream = Some(flag_value(&mut it, a)),
            "--serve-out" => serve_out = Some(flag_value(&mut it, a)),
            "--max-regression" => max_regression = Some(parsed(&mut it, a)),
            "--crash-after-day" => crash_after_day = Some(parsed(&mut it, a)),
            "--snapshot-every-minutes" => snapshot_every_minutes = Some(parsed(&mut it, a)),
            "--crash-after-minute" => crash_after_minute = Some(parsed(&mut it, a)),
            "--shards" => shards = Some(parsed(&mut it, a)),
            "--chunk-minutes" => chunk_minutes = Some(parsed(&mut it, a)),
            "--queue-cap" => queue_cap = Some(parsed(&mut it, a)),
            "--precision" => {
                precision = match flag_value(&mut it, a).as_str() {
                    "f64" => Precision::F64,
                    "f32fast" => Precision::F32Fast,
                    other => {
                        eprintln!("--precision must be f64 or f32fast, got {other:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--compression" => {
                let v = flag_value(&mut it, a);
                compression = match v.as_str() {
                    "raw" => PayloadCodec::Raw,
                    "q8" => PayloadCodec::QuantizedI8 {
                        per_layer_scale: true,
                    },
                    "q8-global" => PayloadCodec::QuantizedI8 {
                        per_layer_scale: false,
                    },
                    other => match other.strip_prefix("topk:").map(str::parse::<f64>) {
                        Some(Ok(fraction)) if fraction > 0.0 && fraction <= 1.0 => {
                            PayloadCodec::TopK { fraction }
                        }
                        _ => {
                            eprintln!(
                                "--compression must be raw, q8, q8-global or topk:FRAC \
                                 (0 < FRAC <= 1), got {other:?}"
                            );
                            std::process::exit(2);
                        }
                    },
                }
            }
            other if other.starts_with("--") => {
                eprintln!(
                    "unknown flag {other:?}; known: --quick --json --phases --out-dir \
                     --checkpoint-dir --resume-from --crash-after-day --baseline \
                     --max-regression --stream --serve-out --snapshot-every-minutes \
                     --crash-after-minute --shards --chunk-minutes --queue-cap --precision \
                     --compression --flat-only --hier-only"
                );
                std::process::exit(2);
            }
            t => targets.push(t.to_string()),
        }
    }
    if targets.is_empty() || targets.iter().any(|t| t == "all") {
        targets = [
            "table1",
            "table2",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig12",
            "fig13",
            "degradation",
            "sensor-degradation",
            "headline",
        ]
        .map(String::from)
        .to_vec();
    }
    fs::create_dir_all(&out_dir).expect("create the output directory");
    let ctx = Ctx {
        quick,
        out_dir,
        checkpoint_dir,
        resume_from,
        crash_after_day,
        baseline,
        max_regression,
        phases,
        stream,
        serve_out,
        snapshot_every_minutes,
        crash_after_minute,
        shards,
        chunk_minutes,
        queue_cap,
        flat_only,
        hier_only,
        precision,
        compression,
    };

    let started = Instant::now();
    let mut nine_eleven_fourteen_done = false;
    let mut timings: Vec<TargetTiming> = Vec::new();
    let mut run_summary: Option<RunSummary> = None;
    let mut serve_report: Option<ServeReport> = None;
    let mut degradation_result: Option<DegradationResult> = None;
    let mut sensor_degradation_result: Option<SensorFaultResult> = None;
    for t in &targets {
        let t0 = Instant::now();
        match t.as_str() {
            "table1" => table1(&ctx),
            "table2" => table2(&ctx),
            "fig2" => fig2(&ctx),
            "fig3" => fig3(&ctx),
            "fig4" => fig4(&ctx),
            "fig5" => fig5(&ctx),
            "fig6" => fig6(&ctx),
            "fig7" => fig7(&ctx),
            "fig8" => fig8(&ctx),
            "fig9" | "fig11" | "fig14" => {
                if !nine_eleven_fourteen_done {
                    figs_9_11_14(&ctx);
                    nine_eleven_fourteen_done = true;
                }
            }
            "fig10" => fig10(&ctx),
            "fig12" => fig12(&ctx),
            "fig13" => fig13(&ctx),
            "degradation" => degradation_result = Some(degradation(&ctx)),
            "sensor-degradation" => sensor_degradation_result = Some(sensor_degradation(&ctx)),
            "headline" => run_headline(&ctx),
            "run" => run_summary = Some(run_checkpointed(&ctx)),
            "serve" => serve_report = Some(serve(&ctx)),
            "bench" => bench(&ctx),
            "precision-canary" => {
                precision_canary(&ctx);
            }
            "compression-canary" => {
                compression_canary(&ctx);
            }
            "scale-smoke" => scale_smoke(&ctx),
            other => {
                eprintln!(
                    "unknown target {other:?}; known: table1 table2 fig2..fig14 degradation sensor-degradation headline run serve bench precision-canary compression-canary scale-smoke"
                );
                std::process::exit(2);
            }
        }
        let seconds = t0.elapsed().as_secs_f64();
        println!("[{t} took {seconds:.1}s]");
        timings.push(TargetTiming {
            target: t.clone(),
            seconds,
        });
    }
    let total_seconds = started.elapsed().as_secs_f64();
    println!("\ntotal: {total_seconds:.1}s");
    if json {
        let summary = SessionSummary {
            quick,
            config_hash: format!("{:#018x}", ctx.base().run_hash()),
            compression: ctx.compression.label().to_string(),
            total_seconds,
            timings,
            ems_comm_bytes: run_summary.as_ref().map(|r| r.result.ems_comm_bytes),
            ems_comm_logical_bytes: run_summary
                .as_ref()
                .map(|r| r.result.ems_comm_logical_bytes),
            run: run_summary,
            serve: serve_report,
            degradation: degradation_result,
            sensor_degradation: sensor_degradation_result,
        };
        println!(
            "{}",
            serde_json::to_string(&summary).expect("summary serializes")
        );
    }
}
