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

use pfdrl_bench::{
    bench_ems_config, clients_config, forecast_config, format_series, format_series_table,
    quick_config, repro_config,
};
use pfdrl_core::experiment::{
    self, compare_methods, fig10_monetary, fig12_personalization, fig13_forecast_overhead,
    headline, table2_rows, DegradationResult, SensorFaultResult,
};
use pfdrl_core::{
    run_method_resumable, run_method_resume_from, train_forecasters, EmsMethod, Precision,
    ResumableRun, RunResult, SimConfig,
};
use pfdrl_data::SensorFaultConfig;
use pfdrl_fl::{AggregationMode, PayloadCodec, ShardAssignment};
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

/// Every flag but `--json`, parsed straight into its field.
#[derive(Default)]
struct Ctx {
    quick: bool,
    out_dir: String,
    checkpoint_dir: Option<String>,
    resume_from: Option<String>,
    crash_after_day: Option<u64>,
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
    /// `--precision <f64|f32fast>`: forecast inference precision of the
    /// base configuration (run/serve/headline/figures). Part of the run
    /// identity, so `f32fast` selects its own canary trajectory.
    precision: Precision,
    /// `--compression <raw|q8|q8-global>`: federation payload codec of
    /// the base configuration. Part of the run identity — compressed
    /// codecs change the merged bits, so each codec has its own
    /// deterministic trajectory.
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

/// Committed canary literals, `[saved fraction, forecast accuracy]`: the
/// converged saved-standby fraction of the fixed-seed PFDRL run and the
/// mean forecast accuracy of the trained fleet over the evaluation span.
/// Full scale is `bench_ems_config()`; quick is `tiny(42)` with the
/// forecast method switched to LSTM, since the tiny config's LR
/// forecaster has no f32 path. The saved fraction is action-quantized
/// (sub-µW forecast deltas rarely flip a discrete EMS action, so F64 and
/// F32Fast land on the same value, which is itself pinned); the forecast
/// accuracy moves whenever a single prediction bit changes, which keeps
/// the two precisions' canaries distinct. Every run here is
/// bit-deterministic, so any drift is a correctness regression, not
/// noise.
const F64_FULL: [f64; 2] = [0.39476153139803727, 0.8000332742645503];
const F64_QUICK: [f64; 2] = [0.49031103179286195, 0.7775601629068307];
const F32_FULL: [f64; 2] = [0.39476153139803727, 0.8000332827694779];
const F32_QUICK: [f64; 2] = [0.49031103179286195, 0.7775601875591515];

/// The two observables every canary row measures, in literal order.
const OBSERVABLES: [&str; 2] = ["saved fraction", "forecast accuracy"];

/// What a canary row must reproduce.
enum Expect {
    /// Bit for bit: the full-scale literal, then the quick one.
    Pinned([f64; 2], [f64; 2]),
    /// Each observable within this `|Δ|` of the first (F64) row.
    Within([f64; 2]),
}

/// One `canary` row: a configuration override and what it must give.
struct Canary {
    label: &'static str,
    /// Applied to the canary's base configuration.
    apply: fn(&mut SimConfig),
    /// Width of every parallel call; 0 is the default width.
    threads: usize,
    expect: Expect,
}

/// The `canary` table. The default F64 path is pinned one thread wide
/// and four wide, because the canary must not depend on how many threads
/// ran it. The q8 envelope carries ~2× headroom over the measured deltas
/// (DESIGN.md §16): int8 quantization is nearly free (|Δsaved| ≤ 1.2e-2
/// quick / 7.6e-6 full, |Δaccuracy| ≤ 7.7e-3). The last three rows pin
/// paths the default never takes: `hier:2` the shard reduction and the
/// aggregate-of-aggregates merge (EMS and forecast federation alike),
/// `churn:0.5` the per-home fallback under residence dropout and message
/// loss, and `storm:0.5` sensor-fault imputation and quarantine.
const CANARIES: [Canary; 7] = [
    Canary {
        label: "f64 (1 thread)",
        apply: |_| {},
        threads: 1,
        expect: Expect::Pinned(F64_FULL, F64_QUICK),
    },
    Canary {
        label: "f64 (4 threads)",
        apply: |_| {},
        threads: 4,
        expect: Expect::Pinned(F64_FULL, F64_QUICK),
    },
    Canary {
        label: "f32fast",
        apply: |c| c.precision = Precision::F32Fast,
        threads: 0,
        expect: Expect::Pinned(F32_FULL, F32_QUICK),
    },
    Canary {
        label: "q8",
        apply: |c| {
            c.compression = PayloadCodec::QuantizedI8 {
                per_layer_scale: true,
            }
        },
        threads: 0,
        expect: Expect::Within([0.05, 0.03]),
    },
    Canary {
        label: "hier:2",
        apply: |c| {
            c.aggregation = AggregationMode::Hierarchical {
                shards: 2,
                assignment: ShardAssignment::RoundRobin,
            }
        },
        threads: 0,
        expect: Expect::Pinned(
            [0.39476153139803727, 0.8000332742645434],
            [0.49031103179286195, 0.7775601629068271],
        ),
    },
    Canary {
        label: "churn:0.5",
        apply: |c| {
            c.fault.dropout_rate = 0.5;
            c.fault.loss_rate = 0.5;
        },
        threads: 0,
        expect: Expect::Pinned(
            [0.3957964849012673, 0.6632841709449094],
            [0.4946141540418756, 0.8173723668605906],
        ),
    },
    Canary {
        label: "storm:0.5",
        apply: |c| c.sensor_fault = SensorFaultConfig::storm(c.sensor_fault.seed, 0.5),
        threads: 0,
        expect: Expect::Pinned(
            [0.39606929304969885, 0.8000332742645503],
            [0.5095770501436676, 0.7775601629068307],
        ),
    },
];

/// One `canary` observation row.
#[derive(Debug, Clone, Serialize)]
struct CanaryRow {
    row: String,
    saved_fraction: f64,
    forecast_accuracy: f64,
}

/// `canary [--quick]` target: runs the fixed-seed trajectory and
/// forecast evaluation of every [`CANARIES`] row and exits 1 unless each
/// pinned row matches its committed literals bit for bit and each
/// enveloped row stays inside its bounds.
fn canary(ctx: &Ctx) {
    banner("canary", "fixed-seed trajectories vs committed canaries");
    let base = if ctx.quick {
        let mut c = quick_config(SEED);
        // tiny() uses the LR forecaster; the canary must exercise the
        // LSTM path, the one backend with a reduced-precision mirror.
        c.forecast_method = pfdrl_forecast::ForecastMethod::Lstm;
        c
    } else {
        bench_ems_config()
    };
    let mut failed = false;
    let mut reference = [0.0; 2];
    let mut rows = Vec::new();
    for (r, row) in CANARIES.iter().enumerate() {
        let mut cfg = base.clone();
        (row.apply)(&mut cfg);
        let cfg = &cfg;
        let got = rayon::ThreadPoolBuilder::new()
            .num_threads(row.threads)
            .build()
            .expect("a thread width always builds")
            .install(|| {
                let saved =
                    pfdrl_core::run_method(cfg, EmsMethod::Pfdrl).converged_saved_fraction();
                let forecast = train_forecasters(cfg, EmsMethod::Pfdrl);
                [saved, pfdrl_core::evaluate_forecast(cfg, &forecast).mean]
            });
        if r == 0 {
            reference = got;
        }
        let label = row.label;
        for (i, what) in OBSERVABLES.iter().enumerate() {
            let (ok, verdict) = match row.expect {
                Expect::Pinned(full, quick) => {
                    let want = if ctx.quick { quick[i] } else { full[i] };
                    let verdict = format!("{:?} vs committed canary {want:?}", got[i]);
                    (got[i].to_bits() == want.to_bits(), verdict)
                }
                Expect::Within(bound) => {
                    let delta = got[i] - reference[i];
                    let verdict = format!("delta {delta:+.2e} vs committed envelope {}", bound[i]);
                    (delta.abs() <= bound[i], verdict)
                }
            };
            if ok {
                println!("ok   {label}: {what} {verdict}");
            } else {
                eprintln!("FAIL {label}: {what} {verdict}");
                failed = true;
            }
        }
        rows.push(CanaryRow {
            row: label.into(),
            saved_fraction: got[0],
            forecast_accuracy: got[1],
        });
    }
    ctx.save_json("canary", &rows);
    if failed {
        std::process::exit(1);
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
    let mut json = false;
    let mut ctx = Ctx {
        out_dir: "repro_results".to_string(),
        ..Ctx::default()
    };
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
            "--quick" => ctx.quick = true,
            "--json" => json = true,
            "--out-dir" => ctx.out_dir = flag_value(&mut it, a),
            "--checkpoint-dir" => ctx.checkpoint_dir = Some(flag_value(&mut it, a)),
            "--resume-from" => ctx.resume_from = Some(flag_value(&mut it, a)),
            "--stream" => ctx.stream = Some(flag_value(&mut it, a)),
            "--serve-out" => ctx.serve_out = Some(flag_value(&mut it, a)),
            "--crash-after-day" => ctx.crash_after_day = Some(parsed(&mut it, a)),
            "--snapshot-every-minutes" => ctx.snapshot_every_minutes = Some(parsed(&mut it, a)),
            "--crash-after-minute" => ctx.crash_after_minute = Some(parsed(&mut it, a)),
            "--shards" => ctx.shards = Some(parsed(&mut it, a)),
            "--chunk-minutes" => ctx.chunk_minutes = Some(parsed(&mut it, a)),
            "--queue-cap" => ctx.queue_cap = Some(parsed(&mut it, a)),
            "--precision" => {
                ctx.precision = match flag_value(&mut it, a).as_str() {
                    "f64" => Precision::F64,
                    "f32fast" => Precision::F32Fast,
                    other => {
                        eprintln!("--precision must be f64 or f32fast, got {other:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--compression" => {
                ctx.compression = match flag_value(&mut it, a).as_str() {
                    "raw" => PayloadCodec::Raw,
                    "q8" => PayloadCodec::QuantizedI8 {
                        per_layer_scale: true,
                    },
                    "q8-global" => PayloadCodec::QuantizedI8 {
                        per_layer_scale: false,
                    },
                    other => {
                        eprintln!("--compression must be raw, q8 or q8-global, got {other:?}");
                        std::process::exit(2);
                    }
                }
            }
            other if other.starts_with("--") => {
                eprintln!(
                    "unknown flag {other:?}; known: --quick --json --out-dir \
                     --checkpoint-dir --resume-from --crash-after-day --stream --serve-out \
                     --snapshot-every-minutes --crash-after-minute --shards --chunk-minutes \
                     --queue-cap --precision --compression"
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
    fs::create_dir_all(&ctx.out_dir).expect("create the output directory");

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
            "canary" => canary(&ctx),
            other => {
                eprintln!(
                    "unknown target {other:?}; known: table1 table2 fig2..fig14 degradation sensor-degradation headline run serve canary"
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
            quick: ctx.quick,
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
