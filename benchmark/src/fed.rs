//! `fed_round` and `fed_round_q8`: federation rounds alone, and the
//! federation counters and codec timing every workload reports.

use crate::metrics::{peak_rss_mb, Report};
use crate::stats::{median, percentile};
use crate::trace::{report_breakdown, Layer, Tracer};
use crate::workloads::METHOD;
use pfdrl_core::{EmsState, SimConfig};
use pfdrl_drl::DqnAgent;
use pfdrl_fl::{BusStats, LayerSplit, ModelUpdate, PayloadCodec};
use std::error::Error;
use std::hint::black_box;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// 100 timed rounds leave 10 samples beyond the 90th percentile.
const MIN_ROUNDS: usize = 100;
const MIN_TRACED_ROUNDS: usize = 10;

/// Bus counter deltas over an interval.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlDelta {
    pub messages: u64,
    pub bytes: u64,
    pub logical_bytes: u64,
    pub dropped: u64,
    pub corrupted: u64,
}

impl FlDelta {
    pub fn add(&mut self, o: &FlDelta) {
        self.messages += o.messages;
        self.bytes += o.bytes;
        self.logical_bytes += o.logical_bytes;
        self.dropped += o.dropped;
        self.corrupted += o.corrupted;
    }
}

/// The counters of whichever bus the state federates over: the shard
/// buses under hierarchical aggregation, the flat bus otherwise.
pub fn fl_stats(s: &EmsState) -> BusStats {
    s.hier
        .as_ref()
        .map_or_else(|| s.bus.stats(), |h| h.total_stats())
}

pub fn fl_delta(before: &BusStats, after: &BusStats) -> FlDelta {
    FlDelta {
        messages: after.messages - before.messages,
        bytes: after.bytes - before.bytes,
        logical_bytes: after.logical_bytes - before.logical_bytes,
        dropped: after.dropped_total() - before.dropped_total(),
        corrupted: after.corrupted - before.corrupted,
    }
}

/// Mean wall time to encode, then decode, one home's base-layer update
/// under `codec`, µs.
pub fn codec_us(agent: &DqnAgent, alpha: usize, codec: PayloadCodec) -> (f64, f64) {
    const REPS: u32 = 1000;
    let update = LayerSplit::for_model(alpha, agent).base_update(agent, 0, 0, 0);
    let t = Instant::now();
    let mut bytes = Vec::new();
    for _ in 0..REPS {
        bytes = black_box(update.encode_with(codec));
    }
    let enc = t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS);
    let t = Instant::now();
    for _ in 0..REPS {
        black_box(ModelUpdate::decode(&bytes).expect("an encoded update decodes"));
    }
    let dec = t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS);
    (enc, dec)
}

/// The `fl.*` per-layer metrics of one operation.
pub fn report_fl(report: &mut Report, state: &EmsState, cfg: &SimConfig, per_op: &FlDelta) {
    report.metric("fl.messages", per_op.messages as f64);
    report.metric("fl.wire_bytes", per_op.bytes as f64);
    report.metric("fl.logical_bytes", per_op.logical_bytes as f64);
    report.metric("fl.dropped", per_op.dropped as f64);
    report.metric(
        "fl.peak_shard_bytes",
        state.hier.as_ref().map_or(0, |h| h.peak_shard_bytes()) as f64,
    );
    let (enc, dec) = codec_us(&state.agents[0][0], cfg.alpha, cfg.compression);
    report.metric("fl.encode_us", enc);
    report.metric("fl.decode_us", dec);
}

pub fn run(
    cfg: &SimConfig,
    seconds: f64,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), Box<dyn Error>> {
    let trace = report.trace();
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..if trace { 1 } else { SETUPS } {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(EmsState::fresh(cfg));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut a = kept.expect("at least one set-up");
    // The first round sizes the update pools; it is not timed.
    let t = Instant::now();
    a.federate_now(cfg, METHOD);
    report.info("first_round_ms", t.elapsed().as_secs_f64() * 1e3);

    let min_rounds = if trace { MIN_TRACED_ROUNDS } else { MIN_ROUNDS };
    let (mut round_ms, mut traced_ms, mut roots, mut rounds) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while round_ms.len() < min_rounds || started.elapsed().as_secs_f64() < seconds {
        let before = fl_stats(&a);
        let t = Instant::now();
        a.federate_now(cfg, METHOD);
        round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        rounds.push(fl_delta(&before, &fl_stats(&a)));
        if trace {
            let before = fl_stats(&a);
            let root = tr.begin("op", Layer::Core);
            tr.span("federate_now", Layer::Fl, || a.federate_now(cfg, METHOD));
            tr.end(root);
            roots.push(root);
            traced_ms.push(tr.duration_ns(root) as f64 / 1e6);
            rounds.push(fl_delta(&before, &fl_stats(&a)));
        }
    }

    let mut total = FlDelta::default();
    rounds.iter().for_each(|r| total.add(r));
    report.ops(total.messages, total.dropped + total.corrupted);
    report.check(
        "every round delivered every message intact",
        rounds
            .iter()
            .all(|r| r.messages > 0 && r.dropped == 0 && r.corrupted == 0),
        format!(
            "{} rounds, {} dropped, {} corrupted",
            rounds.len(),
            total.dropped,
            total.corrupted
        ),
    );
    let first = rounds[0];
    report.check(
        "every round moved the same messages and bytes",
        rounds.iter().all(|r| *r == first),
        format!(
            "{} messages, {} wire B, {} logical B per round",
            first.messages, first.bytes, first.logical_bytes
        ),
    );
    report.info("wire_bytes_per_round", first.bytes as f64);
    report.info("logical_bytes_per_round", first.logical_bytes as f64);
    report.info("messages_per_round", first.messages as f64);

    if trace {
        let bd = tr.breakdown(&roots);
        let overhead =
            median(&traced_ms).unwrap_or(f64::NAN) / median(&round_ms).unwrap_or(f64::NAN) - 1.0;
        report_breakdown(report, &bd, roots.len() as u64, overhead);
        report_fl(report, &a, cfg, &first);
        for name in [
            "forecast.fit_share",
            "store.snapshot_bytes",
            "serve.max_queue_len",
            "serve.backpressure_drains",
            "serve.shed",
            "serve.fed_rounds",
        ] {
            report.metric(name, 0.0);
        }
    } else {
        let homes = (cfg.n_residences * cfg.devices_per_home()) as f64;
        let timed_s: f64 = round_ms.iter().sum::<f64>() / 1e3;
        report.metric("setup_s", median(&setups).unwrap_or(f64::NAN));
        report.metric("latency_ms_p50", median(&round_ms).unwrap_or(f64::NAN));
        report.metric("throughput_per_s", homes * round_ms.len() as f64 / timed_s);
        report.metric("peak_rss_mb", peak_rss_mb());
        report.info("timed_rounds", round_ms.len() as f64);
        if let Some(p90) = percentile(&round_ms, 90.0) {
            report.info("round_ms_p90", p90);
        }
    }
    Ok(())
}
