//! The metric registry, `BENCHMARK.json`, and the per-run record.
//!
//! Every workload reports every metric of the registry half it runs:
//! an untraced run the end-to-end metrics, a traced run the per-layer
//! ones. A layer the workload never calls reads 0 (a share or a count,
//! never a time), so the two registries are the same for all workloads.

use serde::{Deserialize, Serialize};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One registered metric.
#[derive(Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Each workload names its unit of
/// work (a simulated day, a federation round, a served decision); see
/// the benchmark README.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower),
    def("latency_ms_p50", "ms", Lower),
    def("throughput_per_s", "1/s", Higher),
    def("peak_rss_mb", "MB", Lower),
];

/// Per-layer metrics of one traced operation. `*.share` is the layer's
/// self time over the operation's wall time; counts are per operation.
pub const PER_LAYER: &[MetricDef] = &[
    def("trace.op_ms", "ms", Lower),
    def("trace.coverage", "ratio", Higher),
    def("trace.overhead", "ratio", Lower),
    def("data.share", "ratio", Lower),
    def("data.trace_calls", "count", Lower),
    def("forecast.share", "ratio", Lower),
    def("forecast.predict_calls", "count", Lower),
    def("forecast.fit_share", "ratio", Lower),
    def("env.share", "ratio", Lower),
    def("env.steps", "count", Lower),
    def("drl.share", "ratio", Lower),
    def("drl.act_share", "ratio", Lower),
    def("drl.train_share", "ratio", Lower),
    def("drl.act_calls", "count", Lower),
    def("drl.train_steps", "count", Lower),
    def("fl.share", "ratio", Lower),
    def("fl.rounds", "count", Lower),
    def("fl.messages", "count", Lower),
    def("fl.wire_bytes", "B", Lower),
    def("fl.logical_bytes", "B", Lower),
    def("fl.dropped", "count", Lower),
    def("fl.peak_shard_bytes", "B", Lower),
    def("fl.encode_us", "us", Lower),
    def("fl.decode_us", "us", Lower),
    def("store.share", "ratio", Lower),
    def("store.snapshot_bytes", "B", Lower),
    def("core.share", "ratio", Lower),
    def("serve.share", "ratio", Lower),
    def("serve.chunk_close_share", "ratio", Lower),
    def("serve.chunks", "count", Lower),
    def("serve.max_queue_len", "count", Lower),
    def("serve.backpressure_drains", "count", Lower),
    def("serve.shed", "count", Lower),
    def("serve.fed_rounds", "count", Lower),
];

/// The registry half a run reports.
pub fn registry(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// `BENCHMARK.json`, compiled in so the binary and its bounds cannot
/// drift apart.
pub const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

/// What the binary reads from `BENCHMARK.json`.
#[derive(Debug, Deserialize)]
pub struct Spec {
    pub run_seconds: u64,
    pub end_to_end: Vec<Bound>,
}

/// An end-to-end metric's regression bound, a share of the base median.
#[derive(Debug, Deserialize)]
pub struct Bound {
    pub name: String,
    pub bound: f64,
}

pub fn spec() -> Spec {
    serde_json::from_str(SPEC_JSON).expect("BENCHMARK.json is valid")
}

/// A registered metric by name.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// One correctness gate's verdict.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricValue {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// A measured quantity outside the registry (tail percentiles, saved
/// fraction, store timings), kept in the result file for the reader.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InfoValue {
    pub name: String,
    pub value: f64,
}

/// Everything one run measured and checked: the result file's content.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub seconds: f64,
    pub nproc: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<MetricValue>,
    pub info: Vec<InfoValue>,
    pub checks: Vec<Check>,
}

impl Record {
    /// The one-line JSON summary printed last on stdout.
    pub fn summary_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// All digits of `v` (Rust's shortest round-trip form); JSON has no NaN.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Collects one run's metrics, extra measurements and gate verdicts.
pub struct Report {
    trace: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    info: Vec<(String, f64)>,
    checks: Vec<Check>,
}

impl Report {
    pub fn new(trace: bool) -> Self {
        Report {
            trace,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            info: Vec::new(),
            checks: Vec::new(),
        }
    }

    pub fn trace(&self) -> bool {
        self.trace
    }

    /// Records a metric of the registry half this run reports.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn info(&mut self, name: impl Into<String>, value: f64) {
        self.info.push((name.into(), value));
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Counts operations attempted and failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Closes the report: every metric of the registry half must be
    /// reported exactly once and be finite, no other metric may be
    /// reported, and at least one operation must have run.
    pub fn finish(mut self, workload: &str, seed: u64, seconds: f64) -> Record {
        let defs = registry(self.trace);
        let mut metrics = Vec::with_capacity(defs.len());
        let mut problems: Vec<String> = self
            .metrics
            .iter()
            .filter(|(n, _)| !defs.iter().any(|d| d.name == *n))
            .map(|(n, _)| format!("{n} is not declared"))
            .collect();
        for d in defs {
            let values: Vec<f64> = self
                .metrics
                .iter()
                .filter(|(n, _)| *n == d.name)
                .map(|(_, v)| *v)
                .collect();
            match values.as_slice() {
                [v] if v.is_finite() => {}
                [v] => problems.push(format!("{} is not finite ({v})", d.name)),
                [] => problems.push(format!("{} was not measured", d.name)),
                _ => problems.push(format!("{} was reported twice", d.name)),
            }
            metrics.push(MetricValue {
                name: d.name.to_string(),
                unit: d.unit.to_string(),
                value: values.first().copied().unwrap_or(f64::NAN),
            });
        }
        self.check(
            "every declared metric measured once, finite; no other",
            problems.is_empty(),
            problems.join("; "),
        );
        self.check(
            "at least one operation attempted",
            self.attempted > 0,
            format!("{} attempted", self.attempted),
        );
        Record {
            workload: workload.to_string(),
            seed,
            trace: self.trace,
            seconds,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            correct: self.checks.iter().all(|c| c.ok),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            info: self
                .info
                .into_iter()
                .map(|(name, value)| InfoValue { name, value })
                .collect(),
            checks: self.checks,
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                d.unit
            );
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
        assert!(!valid_name("bad name") && !valid_name(".x") && !valid_name(""));
    }

    #[derive(Deserialize)]
    struct FullSpec {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<WorkloadSpec>,
        end_to_end: Vec<MetricSpec>,
        per_layer: Vec<MetricSpec>,
    }

    #[derive(Deserialize)]
    struct WorkloadSpec {
        name: String,
        why: String,
    }

    #[derive(Deserialize)]
    struct MetricSpec {
        name: String,
        unit: String,
        better: String,
        bound: Option<f64>,
    }

    fn declared(specs: &[MetricSpec]) -> Vec<(String, String, String)> {
        specs
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone(), m.better.clone()))
            .collect()
    }

    fn registered(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_registry() {
        let spec: FullSpec = serde_json::from_str(SPEC_JSON).unwrap();
        assert_eq!(declared(&spec.end_to_end), registered(END_TO_END));
        assert_eq!(declared(&spec.per_layer), registered(PER_LAYER));
        let bounds: Vec<f64> = spec.end_to_end.iter().map(|m| m.bound.unwrap()).collect();
        assert!(bounds.iter().all(|b| *b > 0.0 && *b <= 0.25), "{bounds:?}");
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .position(|m| m.name == "setup_s")
            .unwrap();
        assert!(bounds.iter().all(|b| *b <= bounds[setup]));
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        let want: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, want);
        assert!(spec
            .workloads
            .iter()
            .all(|w| valid_name(&w.name) && !w.why.is_empty() && w.why.len() <= 200));
        assert!((1..=60).contains(&spec.run_seconds));
        assert_eq!(spec.paths, ["benchmark"]);
        assert!(spec.command.len() <= 32 && spec.command.iter().all(|a| !a.starts_with('/')));
        assert_eq!(spec.run_seconds, super::spec().run_seconds);
    }

    fn report(names: &[&'static str], value: f64) -> Record {
        let mut r = Report::new(false);
        r.ops(3, 0);
        for n in names {
            r.metric(n, value);
        }
        r.finish("w", 1, 1.0)
    }

    #[test]
    fn only_complete_declared_finite_reports_are_correct() {
        let all: Vec<&'static str> = END_TO_END.iter().map(|d| d.name).collect();
        assert!(report(&all, 1.0).correct);
        assert!(!report(&all[1..], 1.0).correct, "one missing");
        let twice: Vec<&'static str> = all.iter().chain(&all[..1]).copied().collect();
        assert!(!report(&twice, 1.0).correct, "one twice");
        let extra: Vec<&'static str> = all.iter().copied().chain(["trace.op_ms"]).collect();
        assert!(!report(&extra, 1.0).correct, "one from the other half");
        let rec = report(&all, f64::NAN);
        assert!(!rec.correct);
        assert!(rec.summary_line().contains("null"));
    }

    #[test]
    fn summary_line_has_exactly_the_four_keys() {
        let all: Vec<&'static str> = END_TO_END.iter().map(|d| d.name).collect();
        let line = report(&all, 0.125).summary_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}"));
        assert!(!line.contains("trace.op_ms"));
    }
}
