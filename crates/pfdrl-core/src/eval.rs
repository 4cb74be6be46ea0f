//! Forecast-quality evaluation on held-out days — the measurements
//! behind Figures 3 and 5–8.

use crate::config::SimConfig;
use crate::ems::{predict_day_into, PredictDayWorkspace};
use crate::forecast::ForecastPhase;
use pfdrl_data::{DayTrace, TraceGenerator};
use pfdrl_forecast::metrics::{sample_accuracy, DEFAULT_ACCURACY_FLOOR_WATTS};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Forecast accuracy over the evaluation span.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForecastEval {
    /// Every per-minute accuracy sample (the Figure 5 CDF input).
    pub accuracies: Vec<f64>,
    /// Mean accuracy.
    pub mean: f64,
    /// Mean accuracy per hour of day (Figure 6).
    pub hourly: Vec<f64>,
}

/// Evaluates trained forecasters on the configured evaluation days.
pub fn evaluate_forecast(cfg: &SimConfig, forecast: &ForecastPhase) -> ForecastEval {
    cfg.validate();
    let gen = TraceGenerator::new(cfg.generator());
    let per_home: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = (0..cfg.n_residences as u64)
        .into_par_iter()
        .map(|home| {
            let hh = gen.household(home);
            let mut accs = Vec::new();
            let mut hour_sum = vec![0.0f64; 24];
            let mut hour_n = vec![0.0f64; 24];
            // The EMS's inference path: one workspace and trace pair per
            // home, each eval day's trace reused as the next day's `prev`.
            let mut ws = PredictDayWorkspace::default();
            let (mut prev, mut today) = (DayTrace::default(), DayTrace::default());
            let mut pred = Vec::new();
            for device in 0..cfg.devices_per_home() {
                let scale = hh.devices[device].on_watts;
                let model = forecast.models[home as usize][device].as_ref();
                gen.day_trace_into(&hh, device, cfg.eval_start_day - 1, &mut prev);
                for day in cfg.eval_start_day..cfg.eval_start_day + cfg.eval_days {
                    gen.day_trace_into(&hh, device, day, &mut today);
                    predict_day_into(cfg, model, &prev, &today, scale, &mut ws, &mut pred);
                    // Hourly bucketing needs per-minute alignment, so
                    // compute accuracy minute by minute.
                    for (t, (p, r)) in pred.iter().zip(today.watts.iter()).enumerate() {
                        if *r < DEFAULT_ACCURACY_FLOOR_WATTS {
                            continue;
                        }
                        let a = sample_accuracy(*p, *r);
                        accs.push(a);
                        hour_sum[t / 60] += a;
                        hour_n[t / 60] += 1.0;
                    }
                    std::mem::swap(&mut prev, &mut today);
                }
            }
            (accs, hour_sum, hour_n)
        })
        .collect();

    let mut accuracies = Vec::new();
    let mut hour_sum = [0.0f64; 24];
    let mut hour_n = [0.0f64; 24];
    for (a, hs, hn) in per_home {
        accuracies.extend(a);
        for h in 0..24 {
            hour_sum[h] += hs[h];
            hour_n[h] += hn[h];
        }
    }
    assert!(
        !accuracies.is_empty(),
        "no accuracy samples — trace entirely off?"
    );
    let mean = accuracies.iter().sum::<f64>() / accuracies.len() as f64;
    let hourly = hour_sum
        .iter()
        .zip(hour_n.iter())
        .map(|(s, n)| if *n > 0.0 { s / n } else { 0.0 })
        .collect();
    ForecastEval {
        accuracies,
        mean,
        hourly,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecast::train_forecasters;
    use crate::method::EmsMethod;

    #[test]
    fn evaluation_produces_sane_numbers() {
        let cfg = SimConfig::tiny(21);
        let forecast = train_forecasters(&cfg, EmsMethod::Pfdrl);
        let eval = evaluate_forecast(&cfg, &forecast);
        assert!(!eval.accuracies.is_empty());
        assert!((0.0..=1.0).contains(&eval.mean), "mean {}", eval.mean);
        assert_eq!(eval.hourly.len(), 24);
        for (h, a) in eval.hourly.iter().enumerate() {
            assert!((0.0..=1.0).contains(a), "hour {h}: {a}");
        }
    }

    #[test]
    fn trained_beats_local_with_scarce_data() {
        // With the tiny 2-day training span, federated averaging should
        // not be dramatically worse than local; both must be far above
        // zero. (Strict ordering claims are checked at experiment scale.)
        let cfg = SimConfig::tiny(22);
        let fed = evaluate_forecast(&cfg, &train_forecasters(&cfg, EmsMethod::Pfdrl));
        let local = evaluate_forecast(&cfg, &train_forecasters(&cfg, EmsMethod::Local));
        assert!(fed.mean > 0.3, "federated accuracy {}", fed.mean);
        assert!(local.mean > 0.3, "local accuracy {}", local.mean);
    }
}
