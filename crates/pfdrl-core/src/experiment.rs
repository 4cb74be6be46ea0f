//! Experiment runners — one function per table/figure of the paper's
//! evaluation section. Each returns a serializable result the `repro`
//! binary prints and EXPERIMENTS.md records.
//!
//! Callers control the scale through the [`SimConfig`] they pass: the
//! `repro` binary uses experiment-scale configs, the test suite uses
//! `SimConfig::tiny`.

use crate::config::SimConfig;
use crate::eval::evaluate_forecast;
use crate::forecast::train_forecasters;
use crate::method::EmsMethod;
use crate::runner::{run_method, run_method_with_forecast, MethodRun};
use pfdrl_data::PricePlan;
use pfdrl_forecast::metrics::accuracy_cdf;
use pfdrl_forecast::ForecastMethod;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// A labelled series of (x, y) points.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Series {
    pub label: String,
    pub points: Vec<(f64, f64)>,
}

impl Series {
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    /// x value with the maximum y (ties go to the earliest).
    pub fn argmax(&self) -> f64 {
        assert!(!self.points.is_empty(), "argmax of empty series");
        self.points
            .iter()
            .fold(
                (f64::NAN, f64::MIN),
                |best, &(x, y)| if y > best.1 { (x, y) } else { best },
            )
            .0
    }
}

/// Figure 2: saved standby energy vs number of shared layers α.
pub fn fig2_alpha_sweep(base: &SimConfig, alphas: &[usize]) -> Series {
    let points = alphas
        .iter()
        .map(|&alpha| {
            let mut cfg = base.clone();
            cfg.alpha = alpha;
            let run = run_method(&cfg, EmsMethod::Pfdrl);
            (alpha as f64, run.converged_saved_fraction())
        })
        .collect();
    Series::new("PFDRL saved standby energy", points)
}

/// Figure 3: DFL forecast accuracy vs broadcast frequency β (hours).
pub fn fig3_beta_sweep(base: &SimConfig, betas: &[f64]) -> Series {
    let points = betas
        .iter()
        .map(|&beta| {
            let mut cfg = base.clone();
            cfg.beta_hours = beta;
            let forecast = train_forecasters(&cfg, EmsMethod::Pfdrl);
            (beta, evaluate_forecast(&cfg, &forecast).mean)
        })
        .collect();
    Series::new("DFL accuracy", points)
}

/// Figure 4: saved standby energy vs DRL broadcast frequency γ (hours).
pub fn fig4_gamma_sweep(base: &SimConfig, gammas: &[f64]) -> Series {
    let points = gammas
        .iter()
        .map(|&gamma| {
            let mut cfg = base.clone();
            cfg.gamma_hours = gamma;
            let run = run_method(&cfg, EmsMethod::Pfdrl);
            (gamma, run.converged_saved_fraction())
        })
        .collect();
    Series::new("PFDRL saved standby energy", points)
}

/// Evaluates all four forecasting algorithms under the DFL architecture.
fn forecast_evals(base: &SimConfig) -> Vec<(ForecastMethod, crate::eval::ForecastEval)> {
    ForecastMethod::ALL
        .iter()
        .map(|&m| {
            let mut cfg = base.clone();
            cfg.forecast_method = m;
            let forecast = train_forecasters(&cfg, EmsMethod::Pfdrl);
            (m, evaluate_forecast(&cfg, &forecast))
        })
        .collect()
}

/// Figure 5: CDF of per-prediction accuracy for LR/SVM/BP/LSTM.
pub fn fig5_forecast_cdf(base: &SimConfig, cdf_points: usize) -> Vec<Series> {
    forecast_evals(base)
        .into_iter()
        .map(|(m, eval)| {
            let cdf = accuracy_cdf(&eval.accuracies, cdf_points)
                .into_iter()
                .map(|(x, y)| (x * 100.0, y))
                .collect();
            Series::new(m.name(), cdf)
        })
        .collect()
}

/// Figure 6: forecast accuracy by hour of day per algorithm.
pub fn fig6_accuracy_by_hour(base: &SimConfig) -> Vec<Series> {
    forecast_evals(base)
        .into_iter()
        .map(|(m, eval)| {
            let points = eval
                .hourly
                .iter()
                .enumerate()
                .map(|(h, a)| (h as f64, *a))
                .collect();
            Series::new(m.name(), points)
        })
        .collect()
}

/// Figure 7: accuracy vs number of accumulative training days.
pub fn fig7_accuracy_by_days(base: &SimConfig, day_counts: &[u64]) -> Vec<Series> {
    ForecastMethod::ALL
        .iter()
        .map(|&m| {
            let points = day_counts
                .iter()
                .map(|&days| {
                    let mut cfg = base.clone();
                    cfg.forecast_method = m;
                    cfg.train_days = days;
                    cfg.eval_start_day = days;
                    let forecast = train_forecasters(&cfg, EmsMethod::Pfdrl);
                    (days as f64, evaluate_forecast(&cfg, &forecast).mean)
                })
                .collect();
            Series::new(m.name(), points)
        })
        .collect()
}

/// Figure 8: accuracy vs number of participating residences.
pub fn fig8_accuracy_by_clients(base: &SimConfig, client_counts: &[usize]) -> Vec<Series> {
    ForecastMethod::ALL
        .iter()
        .map(|&m| {
            let points = client_counts
                .iter()
                .map(|&n| {
                    let mut cfg = base.clone();
                    cfg.forecast_method = m;
                    cfg.n_residences = n;
                    let forecast = train_forecasters(&cfg, EmsMethod::Pfdrl);
                    (n as f64, evaluate_forecast(&cfg, &forecast).mean)
                })
                .collect();
            Series::new(m.name(), points)
        })
        .collect()
}

/// Figures 9/11/14 share full runs of all five methods.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodComparison {
    pub runs: Vec<MethodRun>,
}

/// Runs every comparison method once on the same configuration.
pub fn compare_methods(base: &SimConfig) -> MethodComparison {
    let runs = EmsMethod::ALL
        .iter()
        .map(|&m| run_method(base, m))
        .collect();
    MethodComparison { runs }
}

impl MethodComparison {
    pub fn run(&self, method: EmsMethod) -> &MethodRun {
        self.runs
            .iter()
            .find(|r| r.method == method.name())
            .expect("method present in comparison")
    }

    /// Figure 9 series: saved kWh per client per eval day.
    pub fn fig9_series(&self) -> Vec<Series> {
        self.runs
            .iter()
            .map(|r| {
                let points = r
                    .ems
                    .daily_saved_kwh_per_client
                    .iter()
                    .enumerate()
                    .map(|(d, v)| (d as f64 + 1.0, *v))
                    .collect();
                Series::new(r.method.clone(), points)
            })
            .collect()
    }

    /// Figure 9 right axis: saved standby percentage per day.
    pub fn fig9_percentage_series(&self) -> Vec<Series> {
        self.runs
            .iter()
            .map(|r| {
                let points = r
                    .ems
                    .daily_saved_fraction
                    .iter()
                    .enumerate()
                    .map(|(d, v)| (d as f64 + 1.0, *v))
                    .collect();
                Series::new(r.method.clone(), points)
            })
            .collect()
    }

    /// Figure 11 series: saved kWh per client by hour of day.
    pub fn fig11_series(&self) -> Vec<Series> {
        self.runs
            .iter()
            .map(|r| {
                let points = r
                    .ems
                    .hourly_saved_kwh_per_client
                    .iter()
                    .enumerate()
                    .map(|(h, v)| (h as f64, *v))
                    .collect();
                Series::new(r.method.clone(), points)
            })
            .collect()
    }

    /// Figure 14 rows: (method, compute seconds, simulated comm seconds).
    pub fn fig14_rows(&self) -> Vec<OverheadRow> {
        self.runs
            .iter()
            .map(|r| OverheadRow {
                label: r.method.clone(),
                train_s: r.forecast_train_wall_s + r.ems.train_wall_s,
                test_s: 0.0,
                comm_s: r.forecast_comm_s + r.ems.comm_s,
            })
            .collect()
    }
}

/// Figure 10: saved monetary cost per client by month, fixed vs variable
/// tariff. Uses the converged hourly saving profile of a PFDRL run
/// (standby availability is season-flat in the generator, so the hourly
/// profile transfers across months; HVAC seasonality does not enter
/// because HVAC is not EMS-controllable).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10Result {
    /// `[month][0=fixed, 1=variable]` saved dollars per client.
    pub monthly_saved_usd: Vec<(f64, f64)>,
}

pub fn fig10_monetary(base: &SimConfig) -> Fig10Result {
    let run = run_method(base, EmsMethod::Pfdrl);
    let days = base.eval_days as f64;
    // kWh saved per client per hour-of-day, per day.
    let hourly_per_day: Vec<f64> = run
        .ems
        .hourly_saved_kwh_per_client
        .iter()
        .map(|v| v / days)
        .collect();
    let month_days = [
        31.0, 28.0, 31.0, 30.0, 31.0, 30.0, 31.0, 31.0, 30.0, 31.0, 30.0, 31.0,
    ];
    let monthly_saved_usd = (0..12)
        .map(|m| {
            let fixed: f64 = hourly_per_day
                .iter()
                .enumerate()
                .map(|(h, kwh)| PricePlan::FixedRate.cost_cents(*kwh, m, h))
                .sum::<f64>()
                * month_days[m]
                / 100.0;
            let variable: f64 = hourly_per_day
                .iter()
                .enumerate()
                .map(|(h, kwh)| PricePlan::VariableRate.cost_cents(*kwh, m, h))
                .sum::<f64>()
                * month_days[m]
                / 100.0;
            (fixed, variable)
        })
        .collect();
    Fig10Result { monthly_saved_usd }
}

/// Figure 12: personalization ablation — per-home saved energy with the
/// personalized split (PFDRL) vs without (FRL-style full sharing).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig12Result {
    pub personalized_per_home_kwh: Vec<f64>,
    pub not_personalized_per_home_kwh: Vec<f64>,
    pub personalized_mean: f64,
    pub not_personalized_mean: f64,
    pub personalized_std: f64,
    pub not_personalized_std: f64,
}

fn mean_std(v: &[f64]) -> (f64, f64) {
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64;
    (mean, var.sqrt())
}

pub fn fig12_personalization(base: &SimConfig) -> Fig12Result {
    let pfdrl = run_method(base, EmsMethod::Pfdrl);
    let frl = run_method(base, EmsMethod::Frl);
    let p = pfdrl.ems.per_home_saved_kwh.clone();
    let np = frl.ems.per_home_saved_kwh.clone();
    let (pm, ps) = mean_std(&p);
    let (nm, ns) = mean_std(&np);
    Fig12Result {
        personalized_per_home_kwh: p,
        not_personalized_per_home_kwh: np,
        personalized_mean: pm,
        not_personalized_mean: nm,
        personalized_std: ps,
        not_personalized_std: ns,
    }
}

/// A time-overhead row for Figures 13/14.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverheadRow {
    pub label: String,
    /// Training compute, seconds.
    pub train_s: f64,
    /// Inference compute, seconds.
    pub test_s: f64,
    /// Simulated communication, seconds.
    pub comm_s: f64,
}

impl OverheadRow {
    pub fn total(&self) -> f64 {
        self.train_s + self.test_s + self.comm_s
    }
}

/// Figure 13: load-forecasting time overhead per algorithm (train + test)
/// under the DFL architecture.
pub fn fig13_forecast_overhead(base: &SimConfig) -> Vec<OverheadRow> {
    ForecastMethod::ALL
        .iter()
        .map(|&m| {
            let mut cfg = base.clone();
            cfg.forecast_method = m;
            let forecast = train_forecasters(&cfg, EmsMethod::Pfdrl);
            let started = Instant::now();
            let _ = evaluate_forecast(&cfg, &forecast);
            let test_s = started.elapsed().as_secs_f64();
            OverheadRow {
                label: m.name().to_string(),
                train_s: forecast.train_wall_s,
                test_s,
                comm_s: forecast.comm_s,
            }
        })
        .collect()
}

/// The headline numbers of §5: load-forecasting accuracy (paper: 92 %
/// with LSTM) and saved standby energy per day (paper: 98 %).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Headline {
    pub forecast_accuracy: f64,
    pub saved_standby_fraction: f64,
    pub comfort_violation_minutes: u64,
    pub total_minutes: u64,
}

pub fn headline(base: &SimConfig) -> Headline {
    let (run, forecast) = run_method_with_forecast(base, EmsMethod::Pfdrl);
    let eval = evaluate_forecast(base, &forecast);
    Headline {
        forecast_accuracy: eval.mean,
        saved_standby_fraction: run.converged_saved_fraction(),
        comfort_violation_minutes: run.ems.account.comfort_violation_minutes,
        total_minutes: run.ems.account.minutes,
    }
}

/// Table 2 as data: the feature matrix of the five methods.
pub fn table2_rows() -> Vec<(String, bool, bool, bool, bool, bool)> {
    EmsMethod::ALL
        .iter()
        .map(|&m| {
            (
                m.name().to_string(),
                m.stays_in_local_area(),
                m.preserves_privacy(),
                m.small_batch_training(),
                m.shares_ems(),
                m.personalized(),
            )
        })
        .collect()
}

/// One row of the fault-degradation experiment: PFDRL under a given
/// residence-dropout and message-loss rate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DegradationRow {
    pub dropout_rate: f64,
    pub loss_rate: f64,
    /// DFL forecast accuracy under these faults.
    pub forecast_accuracy: f64,
    /// Converged standby-energy saved fraction under these faults.
    pub saved_fraction: f64,
    /// `saved_fraction / baseline_saved_fraction` — the share of the
    /// fault-free savings that survives the faults.
    pub retention: f64,
}

/// Graceful-degradation experiment: PFDRL swept over churn and loss
/// rates, against the fault-free baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DegradationResult {
    pub baseline_accuracy: f64,
    pub baseline_saved_fraction: f64,
    pub rows: Vec<DegradationRow>,
}

/// Sweeps PFDRL over `(dropout_rate, loss_rate)` pairs and reports
/// forecast accuracy and standby-energy savings against the fault-free
/// baseline. The rest of `base.fault` (seed, straggler and corruption
/// rates) is kept; only the two rates vary. The fault seed stays fixed
/// so rows differ only in fault intensity, not fault pattern.
///
/// Rows are independent simulations (each gets its own `SimConfig`
/// clone and RNG chain), so they run in parallel via `par_iter`; the
/// parallel calls inside each row then run inline on the row's thread.
/// Because each row is internally deterministic and `collect` preserves
/// input order, the result — down to the serialized JSON bytes — is
/// identical at every thread width (a property pinned by a test below).
pub fn degradation_sweep(base: &SimConfig, rates: &[(f64, f64)]) -> DegradationResult {
    use rayon::prelude::*;

    let mut clean = base.clone();
    clean.fault.dropout_rate = 0.0;
    clean.fault.loss_rate = 0.0;
    let (baseline_run, baseline_forecast) = run_method_with_forecast(&clean, EmsMethod::Pfdrl);
    let baseline_accuracy = evaluate_forecast(&clean, &baseline_forecast).mean;
    let baseline_saved_fraction = baseline_run.converged_saved_fraction();

    let rows = rates
        .par_iter()
        .map(|&(dropout_rate, loss_rate)| {
            let mut cfg = base.clone();
            cfg.fault.dropout_rate = dropout_rate;
            cfg.fault.loss_rate = loss_rate;
            let (run, forecast) = run_method_with_forecast(&cfg, EmsMethod::Pfdrl);
            let saved_fraction = run.converged_saved_fraction();
            DegradationRow {
                dropout_rate,
                loss_rate,
                forecast_accuracy: evaluate_forecast(&cfg, &forecast).mean,
                saved_fraction,
                retention: if baseline_saved_fraction > 0.0 {
                    saved_fraction / baseline_saved_fraction
                } else {
                    0.0
                },
            }
        })
        .collect();
    DegradationResult {
        baseline_accuracy,
        baseline_saved_fraction,
        rows,
    }
}

/// One row of the sensor-fault severity sweep: PFDRL under a
/// [`SensorFaultConfig`] of the given severity.
///
/// [`SensorFaultConfig`]: pfdrl_data::SensorFaultConfig
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SensorFaultRow {
    pub severity: f64,
    /// Device-minutes repaired by forward-fill imputation.
    pub imputed_minutes: u64,
    /// Health state transitions across all homes and days.
    pub health_transitions: u64,
    /// Home-days spent quarantined (withheld from federation uploads).
    pub quarantined_home_days: u64,
    /// Converged standby-energy saved fraction under these faults.
    pub saved_fraction: f64,
    /// `saved_fraction / baseline_saved_fraction` — the share of the
    /// fault-free savings that survives the hostile telemetry.
    pub retention: f64,
}

/// Hostile-telemetry experiment result: PFDRL swept over sensor-fault
/// storm severities, against the fault-free baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SensorFaultResult {
    pub baseline_saved_fraction: f64,
    pub rows: Vec<SensorFaultRow>,
}

/// Sweeps PFDRL over sensor-fault storm severities and reports imputation
/// and quarantine activity plus standby-energy savings against the
/// fault-free baseline. The fault seed is taken from `base.sensor_fault`
/// and stays fixed, so rows differ only in fault intensity, not fault
/// pattern; only the severity varies.
///
/// Like [`degradation_sweep`], rows are independent simulations run in
/// parallel and the result is byte-identical across runs and thread
/// widths. Severity 0.0 turns every fault class off, so that row
/// collapses to the fault-free configuration and must land on the
/// baseline numbers exactly — the regression canary the CI sweep pins.
pub fn sensor_fault_sweep(base: &SimConfig, severities: &[f64]) -> SensorFaultResult {
    use rayon::prelude::*;

    let mut clean = base.clone();
    clean.sensor_fault.severity = 0.0;
    let baseline_run = run_method(&clean, EmsMethod::Pfdrl);
    let baseline_saved_fraction = baseline_run.converged_saved_fraction();

    let rows = severities
        .par_iter()
        .map(|&severity| {
            let mut cfg = base.clone();
            cfg.sensor_fault.severity = severity;
            let run = run_method(&cfg, EmsMethod::Pfdrl);
            let saved_fraction = run.converged_saved_fraction();
            SensorFaultRow {
                severity,
                imputed_minutes: run.ems.imputed_minutes,
                health_transitions: run.ems.health_transitions,
                quarantined_home_days: run.ems.quarantined_home_days,
                saved_fraction,
                retention: if baseline_saved_fraction > 0.0 {
                    saved_fraction / baseline_saved_fraction
                } else {
                    0.0
                },
            }
        })
        .collect();
    SensorFaultResult {
        baseline_saved_fraction,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SimConfig {
        SimConfig::tiny(31)
    }

    #[test]
    fn series_argmax_picks_peak() {
        let s = Series::new("x", vec![(1.0, 0.2), (2.0, 0.9), (3.0, 0.5)]);
        assert_eq!(s.argmax(), 2.0);
    }

    #[test]
    fn fig2_sweep_runs_over_alphas() {
        let s = fig2_alpha_sweep(&tiny(), &[1, 2]);
        assert_eq!(s.points.len(), 2);
        for (_, y) in &s.points {
            assert!((0.0..=1.0).contains(y));
        }
    }

    #[test]
    fn fig3_sweep_runs_over_betas() {
        let s = fig3_beta_sweep(&tiny(), &[12.0, 24.0]);
        assert_eq!(s.points.len(), 2);
        for (_, y) in &s.points {
            assert!((0.0..=1.0).contains(y), "accuracy {y}");
        }
    }

    #[test]
    fn fig5_cdf_is_monotone_per_method() {
        let cdfs = fig5_forecast_cdf(&tiny(), 6);
        assert_eq!(cdfs.len(), 4);
        for s in &cdfs {
            for w in s.points.windows(2) {
                assert!(w[1].1 >= w[0].1, "{} CDF not monotone", s.label);
            }
        }
    }

    #[test]
    fn fig10_produces_12_months() {
        let r = fig10_monetary(&tiny());
        assert_eq!(r.monthly_saved_usd.len(), 12);
        for (f, v) in &r.monthly_saved_usd {
            assert!(*f >= 0.0 && *v >= 0.0);
        }
    }

    #[test]
    fn fig13_covers_all_methods() {
        let rows = fig13_forecast_overhead(&tiny());
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.train_s > 0.0, "{} no training time", r.label);
            assert!(r.test_s > 0.0, "{} no testing time", r.label);
        }
    }

    #[test]
    fn degradation_sweep_reports_rows_and_baseline() {
        let r = degradation_sweep(&tiny(), &[(0.0, 0.0), (0.3, 0.3)]);
        assert_eq!(r.rows.len(), 2);
        assert!((0.0..=1.0).contains(&r.baseline_saved_fraction));
        // The fault-free row must match the baseline almost exactly
        // (same config, same seeds).
        let clean = &r.rows[0];
        assert!((clean.saved_fraction - r.baseline_saved_fraction).abs() < 1e-9);
        assert!((clean.retention - 1.0).abs() < 1e-9);
        for row in &r.rows {
            assert!((0.0..=1.0).contains(&row.saved_fraction));
            assert!(row.retention >= 0.0);
        }
    }

    #[test]
    fn degradation_sweep_is_byte_identical_across_runs() {
        // The baseline runs its days in parallel and the rows run side
        // by side; determinism must depend on neither scheduling nor
        // width. A one-thread run and a four-thread run must serialize
        // to the same JSON bytes.
        let rates = [(0.0, 0.0), (0.3, 0.3)];
        let sweep = |width: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap()
                .install(|| serde_json::to_string(&degradation_sweep(&tiny(), &rates)).unwrap())
        };
        assert_eq!(
            sweep(1),
            sweep(4),
            "degradation sweep JSON differs between widths 1 and 4"
        );
    }

    #[test]
    fn sensor_fault_sweep_reports_rows_and_baseline() {
        let r = sensor_fault_sweep(&tiny(), &[0.0, 0.8]);
        assert_eq!(r.rows.len(), 2);
        assert!((0.0..=1.0).contains(&r.baseline_saved_fraction));
        // Severity 0.0 is the fault-free configuration: bitwise equal to
        // the baseline, with the health machinery fully dormant.
        let clean = &r.rows[0];
        assert_eq!(clean.saved_fraction, r.baseline_saved_fraction);
        assert_eq!(clean.retention, 1.0);
        assert_eq!(clean.imputed_minutes, 0);
        assert_eq!(clean.health_transitions, 0);
        assert_eq!(clean.quarantined_home_days, 0);
        // A severe storm must actually hit the telemetry.
        let storm = &r.rows[1];
        assert!(storm.imputed_minutes > 0, "storm imputed nothing");
        for row in &r.rows {
            assert!((0.0..=1.0).contains(&row.saved_fraction));
            assert!(row.retention >= 0.0);
        }
    }

    #[test]
    fn sensor_fault_sweep_is_byte_identical_across_runs() {
        let severities = [0.0, 0.8];
        let a = serde_json::to_string(&sensor_fault_sweep(&tiny(), &severities)).unwrap();
        let b = serde_json::to_string(&sensor_fault_sweep(&tiny(), &severities)).unwrap();
        assert_eq!(a, b, "sensor fault sweep JSON differs between runs");
    }

    #[test]
    fn table2_matches_method_properties() {
        let rows = table2_rows();
        assert_eq!(rows.len(), 5);
        let pfdrl = rows.last().unwrap();
        assert_eq!(pfdrl.0, "PFDRL");
        assert!(pfdrl.1 && pfdrl.2 && pfdrl.3 && pfdrl.4 && pfdrl.5);
    }
}
