//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out as NDJSON when the run ends.
//!
//! A span has a name, a layer, a start, an end and the span it ran
//! inside. Calls too short to time one by one (a DQN `act`, an env
//! step) are not spans: the loop around them sums their busy time and
//! count, and [`Tracer::busy`] adds the sums to the enclosing span.

use crate::metrics::Report;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The program's layers, named after its crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Data,
    Forecast,
    Env,
    Drl,
    Fl,
    Store,
    Core,
    Serve,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Data,
        Layer::Forecast,
        Layer::Env,
        Layer::Drl,
        Layer::Fl,
        Layer::Store,
        Layer::Core,
        Layer::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Data => "data",
            Layer::Forecast => "forecast",
            Layer::Env => "env",
            Layer::Drl => "drl",
            Layer::Fl => "fl",
            Layer::Store => "store",
            Layer::Core => "core",
            Layer::Serve => "serve",
        }
    }
}

/// Summed time and count of short calls made inside one span.
#[derive(Debug, Clone)]
struct Busy {
    name: &'static str,
    layer: Layer,
    ns: u64,
    calls: u64,
}

#[derive(Debug, Clone)]
struct Span {
    parent: Option<usize>,
    name: &'static str,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    busy: Vec<Busy>,
}

/// Identifier of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Per-layer self time and per-name call counts of a set of spans.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Wall time of the root spans, ns.
    pub wall_ns: u64,
    /// Self time per layer, indexed like [`Layer::ALL`], ns.
    pub self_ns: [u64; 8],
    /// (name, calls, busy ns) of every span and summed short call.
    calls: Vec<(&'static str, u64, u64)>,
}

impl Breakdown {
    /// A layer's self time over the roots' wall time.
    pub fn share(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / self.wall_ns.max(1) as f64
    }

    /// Time inside calls named `name` over the roots' wall time.
    pub fn call_share(&self, name: &str) -> f64 {
        let ns: u64 = self.named(name).map(|(_, _, ns)| ns).sum();
        ns as f64 / self.wall_ns.max(1) as f64
    }

    /// Calls named `name` (spans or summed short calls).
    pub fn calls(&self, name: &str) -> u64 {
        self.named(name).map(|(_, calls, _)| calls).sum()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a (&'static str, u64, u64)> {
        self.calls.iter().filter(move |(n, _, _)| *n == name)
    }

    /// Share of the wall time spent inside calls into layers other than
    /// `core`, whose self time is the driving loop itself.
    pub fn coverage(&self) -> f64 {
        1.0 - self.share(Layer::Core)
    }
}

/// Reports the per-layer metrics a breakdown of `ops` traced operations
/// yields; `overhead` is the traced over the untraced operation time,
/// minus 1. A layer the operations never called reads 0.
pub fn report_breakdown(report: &mut Report, bd: &Breakdown, ops: u64, overhead: f64) {
    let per_op = |calls: u64| calls as f64 / ops as f64;
    report.metric("trace.op_ms", bd.wall_ns as f64 / 1e6 / ops as f64);
    report.metric("trace.coverage", bd.coverage());
    report.metric("trace.overhead", overhead);
    for layer in Layer::ALL {
        let name = match layer {
            Layer::Data => "data.share",
            Layer::Forecast => "forecast.share",
            Layer::Env => "env.share",
            Layer::Drl => "drl.share",
            Layer::Fl => "fl.share",
            Layer::Store => "store.share",
            Layer::Core => "core.share",
            Layer::Serve => "serve.share",
        };
        report.metric(name, bd.share(layer));
    }
    report.metric("drl.act_share", bd.call_share("act"));
    report.metric("drl.train_share", bd.call_share("train_step"));
    report.metric("serve.chunk_close_share", bd.call_share("close_chunk"));
    for (metric, call) in [
        ("data.trace_calls", "day_trace_into"),
        ("forecast.predict_calls", "predict_day_into"),
        ("env.steps", "step_into"),
        ("drl.act_calls", "act"),
        ("drl.train_steps", "train_step"),
        ("fl.rounds", "federate_now"),
        ("serve.chunks", "close_chunk"),
    ] {
        report.metric(metric, per_op(bd.calls(call)));
    }
}

/// The span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: Layer) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            busy: Vec::new(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let closed = self.open.pop();
        assert_eq!(closed, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, layer);
        let r = f();
        self.end(id);
        r
    }

    /// Adds `calls` short calls that took `ns` in total to span `id`.
    pub fn busy(&mut self, id: SpanId, name: &'static str, layer: Layer, ns: u64, calls: u64) {
        self.spans[id.0].busy.push(Busy {
            name,
            layer,
            ns,
            calls,
        });
    }

    /// Wall time of a closed span, ns.
    pub fn duration_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id.0];
        s.end_ns - s.start_ns
    }

    /// Self time per layer and call counts over the subtrees of `roots`.
    /// A span's self time is its duration minus its children's spans and
    /// summed short calls; it is charged to the span's own layer.
    pub fn breakdown(&self, roots: &[SpanId]) -> Breakdown {
        let mut inside = vec![false; self.spans.len()];
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut b = Breakdown::default();
        for r in roots {
            inside[r.0] = true;
            b.wall_ns += self.duration_ns(*r);
        }
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                inside[i] |= inside[p];
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if !inside[i] {
                continue;
            }
            if let Some(p) = s.parent.filter(|p| inside[*p]) {
                child_ns[p] += s.end_ns - s.start_ns;
            }
            for k in &s.busy {
                child_ns[i] += k.ns;
                b.self_ns[k.layer as usize] += k.ns;
                b.calls.push((k.name, k.calls, k.ns));
            }
            b.calls.push((s.name, 1, s.end_ns - s.start_ns));
        }
        for (i, s) in self.spans.iter().enumerate() {
            if inside[i] {
                let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
                b.self_ns[s.layer as usize] += own;
            }
        }
        b
    }

    /// Writes every span as one JSON object per line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"busy\":[",
                s.name,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            );
            for (j, k) in s.busy.iter().enumerate() {
                let sep = if j > 0 { "," } else { "" };
                let _ = write!(
                    out,
                    "{sep}{{\"name\":\"{}\",\"layer\":\"{}\",\"ns\":{},\"calls\":{}}}",
                    k.name,
                    k.layer.name(),
                    k.ns,
                    k.calls
                );
            }
            out.push_str("]}\n");
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_children_and_busy_sums() {
        let mut tr = Tracer::default();
        let root = tr.begin("op", Layer::Core);
        tr.span("predict", Layer::Forecast, || spin(2_000_000));
        let seg = tr.begin("segment", Layer::Core);
        spin(1_000_000);
        tr.busy(seg, "act", Layer::Drl, 400_000, 7);
        tr.end(seg);
        tr.end(root);
        let outside = tr.begin("after", Layer::Store);
        tr.end(outside);

        let b = tr.breakdown(&[root]);
        assert_eq!(b.wall_ns, tr.duration_ns(root));
        let total: u64 = b.self_ns.iter().sum();
        assert_eq!(total, b.wall_ns, "self times partition the root");
        assert!(b.self_ns[Layer::Forecast as usize] >= 2_000_000);
        assert_eq!(b.self_ns[Layer::Drl as usize], 400_000);
        assert_eq!(b.self_ns[Layer::Store as usize], 0, "outside the root");
        assert_eq!(b.calls("act"), 7);
        assert_eq!(b.calls("predict"), 1);
        assert!(b.coverage() > 0.0 && b.coverage() < 1.0);
        assert!((b.call_share("act") - 400_000.0 / b.wall_ns as f64).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn spans_close_in_order() {
        let mut tr = Tracer::default();
        let a = tr.begin("a", Layer::Core);
        let _b = tr.begin("b", Layer::Core);
        tr.end(a);
    }
}
