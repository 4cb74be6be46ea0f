//! The repository benchmark. One workload per process:
//!
//! ```text
//! benchmark run <workload> [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! benchmark run --workload <name> --seed N --seconds S --trace 0|1
//! benchmark compare A.json... -- B.json... [--json FILE]
//! ```
//!
//! `run` prints every metric with its unit, checks the outputs, writes
//! a result file (default `.bench_out/<workload>-seed<N>-<e2e|trace>.json`,
//! plus the spans as NDJSON when traced), and prints a one-line JSON
//! summary last. It exits non-zero when a correctness gate fails.
//! See README.md for the workloads and metrics.

mod compare;
mod day;
mod fed;
mod metrics;
mod serve;
mod stats;
mod trace;
mod workloads;

use metrics::{Record, Report};
use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Scale, Workload};

const USAGE: &str = "usage:
  benchmark run <workload> [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
  benchmark run --workload <name> --seed N --seconds S --trace 0|1
  benchmark compare A.json... -- B.json... [--json FILE]
workloads: paper_day fleet_day fed_round fed_round_q8 serve_stream";

/// Where results, spans and checkpoints go, relative to the checkout.
const OUT_DIR: &str = ".bench_out";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = metrics::spec().run_seconds as f64;
    let mut trace = false;
    let mut out = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            // `--trace` alone, or followed by 0 or 1.
            "--trace" => {
                trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1")
            }
            name if !name.starts_with('-') && workload.is_none() => {
                workload = Some(name.to_string())
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let name = workload.ok_or("no workload named")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    if !(seconds >= 0.0 && seconds.is_finite()) {
        return Err(format!(
            "--seconds must be a non-negative number, got {seconds}"
        ));
    }
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

/// Runs one workload into `report`; the caller owns files and output.
fn run_workload(
    workload: Workload,
    seed: u64,
    scale: Scale,
    seconds: f64,
    scratch: &Path,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), Box<dyn Error>> {
    match workload {
        Workload::PaperDay => {
            let spec = day::DaySpec {
                cfg: workloads::paper_day(seed, scale),
                checkpoint: true,
            };
            day::run(&spec, seconds, scratch, tr, report)
        }
        Workload::FleetDay => {
            let spec = day::DaySpec {
                cfg: workloads::fleet_day(seed, scale),
                checkpoint: false,
            };
            day::run(&spec, seconds, scratch, tr, report)
        }
        Workload::FedRound => fed::run(
            &workloads::fed_round(seed, scale, pfdrl_fl::PayloadCodec::Raw),
            seconds,
            tr,
            report,
        ),
        Workload::FedRoundQ8 => fed::run(
            &workloads::fed_round(seed, scale, workloads::Q8),
            seconds,
            tr,
            report,
        ),
        Workload::ServeStream => {
            let (cfg, scfg) = workloads::serve_stream(seed, scale);
            serve::run(&cfg, &scfg, seconds, tr, report)
        }
    }
}

fn run_cmd(args: &[String]) -> ExitCode {
    let a = match parse_run(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = a.workload.name();
    let base = format!(
        "{name}-seed{}-{}",
        a.seed,
        if a.trace { "trace" } else { "e2e" }
    );
    let out_dir = Path::new(OUT_DIR);
    let scratch = out_dir.join(format!("{base}-scratch-{}", std::process::id()));
    let mut tr = Tracer::default();
    let mut report = Report::new(a.trace);
    let result = std::fs::create_dir_all(&scratch)
        .map_err(Box::<dyn Error>::from)
        .and_then(|()| {
            run_workload(
                a.workload,
                a.seed,
                Scale::Full,
                a.seconds,
                &scratch,
                &mut tr,
                &mut report,
            )
        });
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = result {
        eprintln!("benchmark: {name} failed: {e}");
        return ExitCode::FAILURE;
    }

    let record = report.finish(name, a.seed, a.seconds);
    print_record(&record);
    let out = a
        .out
        .unwrap_or_else(|| out_dir.join(format!("{base}.json")));
    let written = write_record(&record, &out).and_then(|()| {
        if a.trace {
            let spans = out.with_extension("spans.ndjson");
            tr.write_ndjson(&spans)?;
            println!("spans: {}", spans.display());
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("benchmark: cannot write results: {e}");
        return ExitCode::FAILURE;
    }
    println!("result: {}", out.display());
    println!("{}", record.summary_line());
    if record.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_record(r: &Record) {
    println!(
        "workload {}  seed {}  seconds {}  traced {}  nproc {}",
        r.workload, r.seed, r.seconds, r.trace, r.nproc
    );
    for m in &r.metrics {
        let better = metrics::find(&m.name).map_or("", |d| d.better.as_str());
        println!(
            "metric {:<28} {:>16.6} {:<6} ({better} is better)",
            m.name, m.value, m.unit
        );
    }
    for i in &r.info {
        println!("info   {:<28} {:>16.6}", i.name, i.value);
    }
    for c in &r.checks {
        let verdict = if c.ok { "ok  " } else { "FAIL" };
        println!("check  [{verdict}] {}: {}", c.name, c.detail);
    }
    println!(
        "operations: {} attempted, {} failed; correct: {}",
        r.attempted, r.failed, r.correct
    );
}

fn write_record(r: &Record, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let json = serde_json::to_string_pretty(r).map_err(std::io::Error::other)?;
    std::fs::write(path, json + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn both_argument_styles_parse() {
        let a = parse_run(&args("--workload fed_round --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::FedRound);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        let a = parse_run(&args("paper_day --trace --out x.json")).unwrap();
        assert_eq!(a.workload, Workload::PaperDay);
        assert!(a.trace && a.seed == 42);
        assert_eq!(a.out, Some(PathBuf::from("x.json")));
        let a = parse_run(&args("serve_stream --trace 0")).unwrap();
        assert!(!a.trace);
        assert!(parse_run(&args("nope")).is_err());
        assert!(parse_run(&args("--seed 1")).is_err());
        assert!(parse_run(&args("fed_round --seconds -1")).is_err());
    }

    /// Every workload, untraced and traced, at miniature scale: it must
    /// pass its gates, one of which is reporting exactly its registry half.
    #[test]
    fn smoke_run_every_workload() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(OUT_DIR)
            .join(format!("smoke-{}", std::process::id()));
        for w in Workload::ALL {
            for trace in [false, true] {
                let scratch = dir.join(format!("{}-{trace}", w.name()));
                std::fs::create_dir_all(&scratch).unwrap();
                let mut tr = Tracer::default();
                let mut report = Report::new(trace);
                run_workload(w, 3, Scale::Smoke, 0.0, &scratch, &mut tr, &mut report)
                    .unwrap_or_else(|e| panic!("{} (trace {trace}): {e}", w.name()));
                let rec = report.finish(w.name(), 3, 0.0);
                let failed: Vec<_> = rec.checks.iter().filter(|c| !c.ok).collect();
                assert!(rec.correct, "{} (trace {trace}): {failed:?}", w.name());
                let line = rec.summary_line();
                assert!(line.starts_with("{\"correct\": true"), "{line}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
