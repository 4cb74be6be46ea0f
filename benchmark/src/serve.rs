//! `serve_stream`: the online path. Phase A replays a prebuilt stream
//! closed loop (the engine pulls the next line as soon as it is ready)
//! and measures capacity; phase B feeds a fresh engine open loop, line
//! `i` due at `t0 + i / rate`, and measures each decision's latency
//! from the due time of the telemetry line it answers.

use crate::fed::{report_fl, FlDelta};
use crate::metrics::{peak_rss_mb, Report};
use crate::stats::{median, percentile};
use crate::trace::{report_breakdown, Layer, Tracer};
use crate::workloads::{METHOD, SERVE_LINES_PER_S};
use pfdrl_core::{train_forecasters, EmsState, SimConfig};
use pfdrl_data::{TraceGenerator, MINUTES_PER_DAY};
use pfdrl_serve::{
    generate_stream, DecisionSink, ServeConfig, ServeEngine, ServeReport, SinkStatus,
    TelemetrySource,
};
use std::error::Error;
use std::io;
use std::time::Instant;

/// Fewest closed-loop replays per untraced run.
const MIN_CLOSED_LOOP: usize = 2;

/// The prebuilt telemetry: minute-major, one line per home per minute.
pub struct Stream {
    lines: Vec<String>,
    n_homes: u64,
    first_minute: u64,
    chunk_minutes: u64,
}

impl Stream {
    /// Index of the telemetry line for (`minute`, `home`).
    pub fn line_index(&self, minute: u64, home: u64) -> Option<u64> {
        let offset = minute.checked_sub(self.first_minute)?;
        (home < self.n_homes).then(|| offset * self.n_homes + home)
    }

    /// Whether reading line `i` makes the engine close the open chunk:
    /// it is home 0's line of the first minute of a later chunk.
    pub fn closes_chunk(&self, i: u64) -> bool {
        i > 0
            && i.is_multiple_of(self.n_homes)
            && (i / self.n_homes).is_multiple_of(self.chunk_minutes)
    }
}

/// When line `i` is due under an open loop offering `lines_per_s`, in
/// ns after the loop starts.
pub fn due_ns(i: u64, lines_per_s: u64) -> u64 {
    (u128::from(i) * 1_000_000_000 / u128::from(lines_per_s)) as u64
}

/// (minute, home) of a decision line `{"m":M,"h":H,...}`.
pub fn decision_key(line: &str) -> Option<(u64, u64)> {
    let rest = line.strip_prefix("{\"m\":")?;
    let (minute, rest) = rest.split_once(',')?;
    let (home, _) = rest.strip_prefix("\"h\":")?.split_once(',')?;
    Some((minute.parse().ok()?, home.parse().ok()?))
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Hands the engine the stream's lines, closed or open loop.
struct Replay<'a> {
    stream: &'a Stream,
    pos: u64,
    /// Open loop: the instant line 0 is due.
    t0: Option<Instant>,
    /// How late each line was handed over, ns (open loop).
    lag_ns: Vec<u64>,
    /// Traced: time inside `next_line`, and the gaps between handing
    /// over a chunk-closing line and the engine's next pull.
    probe: bool,
    source_ns: u64,
    close_ns: u64,
    chunks: u64,
    handed_trigger_at: Option<Instant>,
    /// When the end of the stream was reported; the last chunk closes
    /// after it.
    eof_at: Option<Instant>,
}

impl<'a> Replay<'a> {
    fn new(stream: &'a Stream, t0: Option<Instant>, probe: bool) -> Self {
        Replay {
            stream,
            pos: 0,
            t0,
            lag_ns: Vec::with_capacity(if t0.is_some() { stream.lines.len() } else { 0 }),
            probe,
            source_ns: 0,
            close_ns: 0,
            chunks: 0,
            handed_trigger_at: None,
            eof_at: None,
        }
    }
}

impl TelemetrySource for Replay<'_> {
    fn next_line(&mut self, buf: &mut String) -> io::Result<bool> {
        let entered = self.probe.then(Instant::now);
        if let (Some(at), Some(now)) = (self.handed_trigger_at.take(), entered) {
            self.close_ns += (now - at).as_nanos() as u64;
            self.chunks += 1;
        }
        let Some(line) = self.stream.lines.get(self.pos as usize) else {
            self.eof_at = Some(Instant::now());
            return Ok(false);
        };
        if let Some(t0) = self.t0 {
            let due = due_ns(self.pos, SERVE_LINES_PER_S);
            let mut now = elapsed_ns(t0);
            while now < due {
                std::hint::spin_loop();
                now = elapsed_ns(t0);
            }
            self.lag_ns.push(now - due);
        }
        buf.clear();
        buf.push_str(line);
        if let Some(entered) = entered {
            let now = Instant::now();
            self.source_ns += (now - entered).as_nanos() as u64;
            if self.stream.closes_chunk(self.pos) {
                self.handed_trigger_at = Some(now);
            }
        }
        self.pos += 1;
        Ok(true)
    }
}

/// Takes the engine's decisions: counts them, and in the open loop joins
/// each to its telemetry line's due time.
struct Sink<'a> {
    stream: &'a Stream,
    t0: Option<Instant>,
    latency_ns: Vec<u64>,
    /// Decisions emitted before their telemetry was due (a join error).
    early: u64,
    /// Decisions whose (minute, home) names no line of the stream.
    unjoined: u64,
    /// Traced: time inside `emit`.
    timed: bool,
    sink_ns: u64,
    decisions: u64,
}

impl<'a> Sink<'a> {
    fn new(stream: &'a Stream, t0: Option<Instant>, timed: bool) -> Self {
        Sink {
            stream,
            t0,
            latency_ns: Vec::with_capacity(if t0.is_some() {
                2 * stream.lines.len()
            } else {
                0
            }),
            early: 0,
            unjoined: 0,
            timed,
            sink_ns: 0,
            decisions: 0,
        }
    }
}

impl DecisionSink for Sink<'_> {
    fn emit(&mut self, line: &str) -> io::Result<SinkStatus> {
        let entered = self.timed.then(Instant::now);
        self.decisions += 1;
        if let Some(t0) = self.t0 {
            let now = elapsed_ns(t0);
            match decision_key(line).and_then(|(m, h)| self.stream.line_index(m, h)) {
                Some(i) => {
                    let due = due_ns(i, SERVE_LINES_PER_S);
                    self.early += u64::from(now < due);
                    self.latency_ns.push(now.saturating_sub(due));
                }
                None => self.unjoined += 1,
            }
        }
        if let Some(entered) = entered {
            self.sink_ns += elapsed_ns(entered);
        }
        Ok(SinkStatus::Accepted)
    }
}

/// Forecaster fit plus engine build; returns the engine, the fit time
/// and the whole set-up time, s.
fn build(cfg: &SimConfig, scfg: &ServeConfig) -> (ServeEngine, f64, f64) {
    let t = Instant::now();
    let forecast = train_forecasters(cfg, METHOD);
    let fit_s = t.elapsed().as_secs_f64();
    let engine = ServeEngine::new(cfg.clone(), scfg.clone(), METHOD, forecast, None);
    (engine, fit_s, t.elapsed().as_secs_f64())
}

/// Decisions a full run must emit: every controllable device, every
/// decided minute (the first `state_window` minutes of a day only fill
/// the state), every evaluated day.
fn expected_decisions(cfg: &SimConfig) -> u64 {
    let gen = TraceGenerator::new(cfg.generator());
    let controllable: usize = (0..cfg.n_residences as u64)
        .map(|h| {
            gen.household(h)
                .devices
                .iter()
                .filter(|d| d.controllable)
                .count()
        })
        .sum();
    (controllable * (MINUTES_PER_DAY - cfg.state_window)) as u64 * cfg.eval_days
}

/// Records shed by the engine, of every class.
fn shed(r: &ServeReport) -> u64 {
    let c = &r.counters;
    c.shed_stale + c.shed_out_of_span + c.shed_unknown_home + c.shed_malformed + c.quarantined_shed
}

/// Gates every engine run of the process and counts its operations.
fn check_runs(report: &mut Report, runs: &[ServeReport], lines: u64, expected: u64) {
    for r in runs {
        report.ops(lines, shed(r) + expected.saturating_sub(r.decisions));
    }
    report.check(
        "every run emitted every decision",
        runs.iter().all(|r| r.decisions == expected),
        format!(
            "expected {expected}, emitted {:?}",
            runs.iter().map(|r| r.decisions).collect::<Vec<_>>()
        ),
    );
    report.check(
        "no record was shed",
        runs.iter().all(|r| shed(r) == 0),
        format!("{:?}", runs.iter().map(shed).collect::<Vec<_>>()),
    );
    let first = runs[0].final_saved_fraction.to_bits();
    report.check(
        "every run reached the same saved fraction, bit for bit",
        runs.iter()
            .all(|r| r.final_saved_fraction.to_bits() == first),
        format!("{}", runs[0].final_saved_fraction),
    );
    report.info("saved_fraction", runs[0].final_saved_fraction);
}

pub fn run(
    cfg: &SimConfig,
    scfg: &ServeConfig,
    seconds: f64,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), Box<dyn Error>> {
    let t = Instant::now();
    let mut lines = Vec::new();
    generate_stream(cfg, cfg.eval_start_day - 1, cfg.eval_days + 1, &mut lines);
    report.info("stream_gen_s", t.elapsed().as_secs_f64());
    let stream = Stream {
        lines,
        n_homes: cfg.n_residences as u64,
        first_minute: (cfg.eval_start_day - 1) * MINUTES_PER_DAY as u64,
        chunk_minutes: scfg.chunk_minutes as u64,
    };
    let n_lines = stream.lines.len() as u64;
    let expected = expected_decisions(cfg);
    let mut runs = Vec::new();

    if report.trace() {
        let (mut engine, fit_s, setup_s) = build(cfg, scfg);
        let t = Instant::now();
        runs.push(engine.run(
            &mut Replay::new(&stream, None, false),
            &mut Sink::new(&stream, None, false),
        )?);
        let untraced_ns = elapsed_ns(t);

        let (mut engine, _, _) = build(cfg, scfg);
        let (mut src, mut sink) = (
            Replay::new(&stream, None, true),
            Sink::new(&stream, None, true),
        );
        let root = tr.begin("op", Layer::Core);
        let id = tr.begin("ServeEngine::run", Layer::Serve);
        let rep = engine.run(&mut src, &mut sink)?;
        let last_close = src.eof_at.map_or(0, elapsed_ns);
        tr.busy(id, "next_line", Layer::Core, src.source_ns, n_lines);
        tr.busy(id, "emit", Layer::Core, sink.sink_ns, sink.decisions);
        tr.busy(
            id,
            "close_chunk",
            Layer::Serve,
            (src.close_ns + last_close).saturating_sub(sink.sink_ns),
            src.chunks + 1,
        );
        tr.end(id);
        tr.end(root);

        let bd = tr.breakdown(&[root]);
        report_breakdown(
            report,
            &bd,
            1,
            tr.duration_ns(root) as f64 / untraced_ns as f64 - 1.0,
        );
        report_fl(report, &EmsState::fresh(cfg), cfg, &FlDelta::default());
        report.metric("forecast.fit_share", fit_s / setup_s);
        report.metric("store.snapshot_bytes", 0.0);
        report.metric("serve.max_queue_len", rep.max_queue_len as f64);
        report.metric(
            "serve.backpressure_drains",
            rep.counters.rejected_backpressure as f64,
        );
        report.metric("serve.shed", shed(&rep) as f64);
        report.metric("serve.fed_rounds", rep.fed_rounds as f64);
        runs.push(rep);
        check_runs(report, &runs, n_lines, expected);
        return Ok(());
    }

    // Phase A: closed-loop replays, each on a freshly set-up engine,
    // leaving room in the run for phase B.
    let open_loop_s = n_lines as f64 / SERVE_LINES_PER_S as f64;
    let (mut setups, mut per_s) = (Vec::new(), Vec::new());
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let (mut engine, _, setup_s) = build(cfg, scfg);
        setups.push(setup_s);
        let t_run = Instant::now();
        let rep = engine.run(
            &mut Replay::new(&stream, None, false),
            &mut Sink::new(&stream, None, false),
        )?;
        per_s.push(rep.decisions as f64 / t_run.elapsed().as_secs_f64());
        runs.push(rep);
        let next_end = started.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() + open_loop_s;
        if per_s.len() >= MIN_CLOSED_LOOP && next_end > seconds {
            break;
        }
    }

    // Phase B: open loop at a fixed offered rate.
    let (mut engine, _, setup_s) = build(cfg, scfg);
    setups.push(setup_s);
    let t0 = Instant::now();
    let (mut src, mut sink) = (
        Replay::new(&stream, Some(t0), false),
        Sink::new(&stream, Some(t0), false),
    );
    runs.push(engine.run(&mut src, &mut sink)?);
    report.metric("peak_rss_mb", peak_rss_mb());

    // A decision that never came misses every latency limit.
    let missing = expected.saturating_sub(sink.latency_ns.len() as u64) as usize;
    let latency_ms: Vec<f64> = sink
        .latency_ns
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .chain(std::iter::repeat_n(f64::INFINITY, missing))
        .collect();
    let lag_ms: Vec<f64> = src.lag_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    report.metric("setup_s", median(&setups).unwrap_or(f64::NAN));
    report.metric("throughput_per_s", median(&per_s).unwrap_or(f64::NAN));
    report.metric(
        "latency_ms_p50",
        percentile(&latency_ms, 50.0).unwrap_or(f64::NAN),
    );
    report.info(
        "decision_latency_ms_p99",
        percentile(&latency_ms, 99.0).unwrap_or(f64::NAN),
    );
    report.info(
        "generator_lag_ms_p50",
        percentile(&lag_ms, 50.0).unwrap_or(f64::NAN),
    );
    report.info(
        "generator_lag_ms_p99",
        percentile(&lag_ms, 99.0).unwrap_or(f64::NAN),
    );
    report.info("closed_loop_replays", per_s.len() as f64);
    report.info("open_loop_lines_per_s", SERVE_LINES_PER_S as f64);
    report.check(
        "every decision joins a telemetry line that was already due",
        sink.early == 0 && sink.unjoined == 0,
        format!("{} early, {} unjoined", sink.early, sink.unjoined),
    );
    check_runs(report, &runs, n_lines, expected);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(n_homes: u64, chunk_minutes: u64) -> Stream {
        Stream {
            lines: Vec::new(),
            n_homes,
            first_minute: 1440,
            chunk_minutes,
        }
    }

    #[test]
    fn due_times_follow_the_offered_rate() {
        assert_eq!(due_ns(0, 150_000), 0);
        assert_eq!(due_ns(150_000, 150_000), 1_000_000_000);
        assert_eq!(due_ns(3, 150_000), 20_000);
        // Exact integer arithmetic far past any stream length.
        assert_eq!(due_ns(10_000_000_000, 1), 10_000_000_000_000_000_000);
    }

    #[test]
    fn decisions_join_the_line_of_their_home_and_minute() {
        let s = stream(256, 60);
        assert_eq!(s.line_index(1440, 0), Some(0));
        assert_eq!(s.line_index(1440, 255), Some(255));
        assert_eq!(s.line_index(1441, 3), Some(259));
        assert_eq!(s.line_index(2880 + 7, 1), Some((1440 + 7) * 256 + 1));
        assert_eq!(s.line_index(1439, 0), None, "before the stream");
        assert_eq!(s.line_index(1440, 256), None, "no such home");
    }

    #[test]
    fn decision_lines_parse_to_their_key() {
        let line = "{\"m\":2887,\"h\":12,\"d\":1,\"a\":2,\"r\":-0.5}";
        assert_eq!(decision_key(line), Some((2887, 12)));
        assert_eq!(decision_key("{\"m\":1,\"d\":1}"), None);
        assert_eq!(decision_key("{\"m\":x,\"h\":1,\"d\":1}"), None);
        assert_eq!(decision_key(""), None);
    }

    #[test]
    fn chunk_closes_fall_on_home_zero_of_each_chunk_start() {
        let s = stream(4, 60);
        assert!(!s.closes_chunk(0), "the first line opens a chunk");
        assert!(!s.closes_chunk(4), "minute 1 is inside the first chunk");
        assert!(s.closes_chunk(60 * 4));
        assert!(!s.closes_chunk(60 * 4 + 1));
        assert!(s.closes_chunk(120 * 4));
    }
}
