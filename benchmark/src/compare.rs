//! `benchmark compare A.json... -- B.json... [--json FILE]`: for every
//! workload and metric, each side's median and quartiles, and for an
//! end-to-end metric one verdict against its `BENCHMARK.json` bound:
//!
//! * `worse`: B's median is worse than A's by more than the bound;
//! * `better`: B's median improves on A's by more than A's quartile
//!   distance, and B wins at least 9 in 10 pairs of runs;
//! * `unresolved`: a side's spread is wider than the bound and the two
//!   sides do not separate (neither reads better on every run);
//! * `ok`: none of these.

use crate::metrics::{find, spec, Better, Record};
use crate::stats::{median, quartiles};
use serde::Serialize;
use std::collections::BTreeMap;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// (seed, value) samples of one side.
type Samples = Vec<(u64, f64)>;

/// Judges B against A for a metric that improves in direction `better`
/// and may worsen by at most `bound` (a share of A's median).
pub fn verdict(a: &Samples, b: &Samples, better: Better, bound: f64) -> Verdict {
    let av: Vec<f64> = a.iter().map(|s| s.1).collect();
    let bv: Vec<f64> = b.iter().map(|s| s.1).collect();
    let (Some(ma), Some(mb)) = (median(&av), median(&bv)) else {
        return Verdict::Unresolved;
    };
    let iqr = |v: &[f64]| quartiles(v).map_or(0.0, |(q1, q3)| q3 - q1);
    // Positive when B is worse, as a share of A's median.
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let b_always_better = bv.iter().all(|&y| av.iter().all(|&x| beats(y, x)));
    let b_always_worse = bv.iter().all(|&y| av.iter().all(|&x| beats(x, y)));
    let wide = iqr(&av) / ma.abs() > bound || iqr(&bv) / mb.abs() > bound;
    if wide && !b_always_better && !b_always_worse {
        return Verdict::Unresolved;
    }
    if worse_by > bound {
        return Verdict::Worse;
    }
    // Pair runs by seed when both sides ran the same seeds, otherwise
    // every run of A against every run of B.
    let mut seeds_a: Vec<u64> = a.iter().map(|s| s.0).collect();
    let mut seeds_b: Vec<u64> = b.iter().map(|s| s.0).collect();
    seeds_a.sort_unstable();
    seeds_b.sort_unstable();
    let pairs: Vec<(f64, f64)> = if seeds_a == seeds_b {
        a.iter()
            .filter_map(|(s, x)| b.iter().find(|(t, _)| t == s).map(|(_, y)| (*x, *y)))
            .collect()
    } else {
        av.iter()
            .flat_map(|&x| bv.iter().map(move |&y| (x, y)))
            .collect()
    };
    let wins = pairs.iter().filter(|(x, y)| beats(*y, *x)).count();
    if -worse_by * ma.abs() > iqr(&av) && wins * 10 >= pairs.len() * 9 {
        return Verdict::Better;
    }
    Verdict::Ok
}

#[derive(Serialize)]
struct SideStats {
    runs: usize,
    median: f64,
    q1: f64,
    q3: f64,
}

#[derive(Serialize)]
struct Row {
    workload: String,
    metric: String,
    unit: String,
    bound: Option<f64>,
    a: SideStats,
    b: SideStats,
    ratio_b_over_a: f64,
    verdict: String,
}

#[derive(Serialize)]
struct Summary {
    nproc: Vec<u64>,
    rows: Vec<Row>,
}

fn side_stats(s: &Samples) -> SideStats {
    let v: Vec<f64> = s.iter().map(|x| x.1).collect();
    let m = median(&v).unwrap_or(f64::NAN);
    let (q1, q3) = quartiles(&v).unwrap_or((m, m));
    SideStats {
        runs: v.len(),
        median: m,
        q1,
        q3,
    }
}

/// (workload, metric) → (unit, samples).
type Table = BTreeMap<(String, String), (String, Samples)>;

fn load(files: &[String], nproc: &mut Vec<u64>) -> Result<Table, String> {
    let mut t = Table::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        let r: Record = serde_json::from_str(&text).map_err(|e| format!("{f}: {e}"))?;
        nproc.push(r.nproc);
        for m in r.metrics {
            t.entry((r.workload.clone(), m.name))
                .or_insert_with(|| (m.unit, Vec::new()))
                .1
                .push((r.seed, m.value));
        }
    }
    Ok(t)
}

pub fn main(args: &[String]) -> ExitCode {
    let mut json_out = None;
    let mut sides: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    let mut side = 0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--" => side = 1,
            "--json" => json_out = it.next().cloned(),
            f => sides[side].push(f.to_string()),
        }
    }
    if sides.iter().any(Vec::is_empty) {
        eprintln!("usage: benchmark compare A.json... -- B.json... [--json FILE]");
        return ExitCode::from(2);
    }
    let mut nproc = Vec::new();
    let (a, b) = match (load(&sides[0], &mut nproc), load(&sides[1], &mut nproc)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    nproc.sort_unstable();
    nproc.dedup();

    let spec = spec();
    let mut rows = Vec::new();
    let mut worse = 0;
    for ((workload, metric), (unit, sa)) in &a {
        let Some((_, sb)) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let e2e = spec.end_to_end.iter().find(|m| &m.name == metric);
        let better = find(metric).map_or(Better::Lower, |d| d.better);
        let v = e2e.map(|m| verdict(sa, sb, better, m.bound));
        worse += usize::from(v == Some(Verdict::Worse));
        let (sta, stb) = (side_stats(sa), side_stats(sb));
        let ratio = stb.median / sta.median;
        println!(
            "{workload:<13} {metric:<26} A {:>14.6} [{:.6}, {:.6}] n={:<3} B {:>14.6} [{:.6}, {:.6}] n={:<3} \
             B/A {:.4} of A median {:.6} {unit}  {}",
            sta.median,
            sta.q1,
            sta.q3,
            sta.runs,
            stb.median,
            stb.q1,
            stb.q3,
            stb.runs,
            ratio,
            sta.median,
            v.map_or("-", Verdict::as_str),
        );
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            unit: unit.clone(),
            bound: e2e.map(|m| m.bound),
            a: sta,
            b: stb,
            ratio_b_over_a: ratio,
            verdict: v.map_or("-", Verdict::as_str).to_string(),
        });
    }
    println!("nproc of the compared runs: {nproc:?}; {worse} end-to-end metric(s) worse");
    if let Some(path) = json_out {
        let summary = Summary { nproc, rows };
        let written = serde_json::to_string_pretty(&summary)
            .map_err(|e| e.to_string())
            .and_then(|s| std::fs::write(&path, s + "\n").map_err(|e| e.to_string()));
        if let Err(e) = written {
            eprintln!("benchmark compare: {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(v: &[f64]) -> Samples {
        v.iter().enumerate().map(|(i, &x)| (i as u64, x)).collect()
    }

    #[test]
    fn verdicts_follow_bound_spread_and_pairs() {
        let a = runs(&[
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ]);
        let same = runs(&[
            100.3, 100.8, 99.2, 100.1, 99.7, 100.0, 99.9, 100.4, 99.6, 100.2,
        ]);
        assert_eq!(verdict(&a, &same, Better::Lower, 0.1), Verdict::Ok);
        let slow: Samples = a.iter().map(|&(s, x)| (s, x * 1.2)).collect();
        assert_eq!(verdict(&a, &slow, Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(verdict(&a, &slow, Better::Higher, 0.1), Verdict::Better);
        let fast: Samples = a.iter().map(|&(s, x)| (s, x * 0.95)).collect();
        assert_eq!(verdict(&a, &fast, Better::Lower, 0.1), Verdict::Better);
        let noisy = runs(&[
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ]);
        assert_eq!(verdict(&a, &noisy, Better::Lower, 0.1), Verdict::Unresolved);
    }
}
