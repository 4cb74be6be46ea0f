//! Reproduction *shape* tests: the qualitative claims of the paper's
//! evaluation — who wins, in which direction, where the crossovers are.
//!
//! These run at a reduced experiment scale and take minutes in release
//! mode, so they are `#[ignore]`d by default:
//!
//! ```text
//! cargo test --release --test shapes -- --ignored --test-threads 1
//! ```

use pfdrl::core::runner::run_method;
use pfdrl::core::{evaluate_forecast, train_forecasters, EmsMethod, SimConfig};
use pfdrl::data::dataset::TargetTransform;
use pfdrl::data::DeviceType;
use pfdrl::drl::DqnConfig;
use pfdrl::forecast::{ForecastMethod, TrainConfig};

/// A scale large enough for the paper's orderings to be visible, small
/// enough for CI (matches `pfdrl_bench::repro_config`, fewer homes).
fn shape_config(seed: u64) -> SimConfig {
    let mut dqn = DqnConfig::slim(seed);
    dqn.hidden_width = 16;
    dqn.batch = 24;
    dqn.warmup = 48;
    SimConfig {
        seed,
        n_residences: 8,
        devices: vec![
            DeviceType::Tv,
            DeviceType::GameConsole,
            DeviceType::SetTopBox,
        ],
        train_days: 4,
        eval_days: 5,
        eval_start_day: 4,
        window: 16,
        horizon: 15,
        stride: 9,
        transform: TargetTransform::default(),
        forecast_method: ForecastMethod::Lstm,
        train: TrainConfig {
            lr: 0.02,
            max_epochs: 14,
            ..TrainConfig::with_seed(seed)
        },
        beta_hours: 12.0,
        gamma_hours: 12.0,
        alpha: 6,
        state_window: 4,
        dqn,
        train_every: 6,
        fault: pfdrl::fl::FaultConfig::default(),
        checkpoint: pfdrl::core::CheckpointPolicy::default(),
        aggregation: pfdrl::fl::AggregationMode::PerHome,
        sensor_fault: pfdrl::data::SensorFaultConfig::default(),
        compression: pfdrl::fl::PayloadCodec::Raw,
    }
}

fn accuracy(cfg: &SimConfig) -> f64 {
    let forecast = train_forecasters(cfg, EmsMethod::Pfdrl);
    evaluate_forecast(cfg, &forecast).mean
}

#[test]
#[ignore = "minutes-long shape test; run with --release -- --ignored"]
fn figure_5_method_ordering_holds() {
    // LR < SVM <= BP < LSTM (allowing SVM/BP to sit within noise of
    // each other, as they do in the paper's CDF too).
    let mut accs = Vec::new();
    for m in ForecastMethod::ALL {
        let mut cfg = shape_config(42);
        cfg.forecast_method = m;
        accs.push((m, accuracy(&cfg)));
    }
    let get = |m: ForecastMethod| accs.iter().find(|(x, _)| *x == m).unwrap().1;
    assert!(
        get(ForecastMethod::Lstm) > get(ForecastMethod::Lr),
        "LSTM {:.3} must beat LR {:.3}",
        get(ForecastMethod::Lstm),
        get(ForecastMethod::Lr)
    );
    assert!(
        get(ForecastMethod::Lstm) > get(ForecastMethod::Svm),
        "LSTM must beat SVM"
    );
    assert!(
        get(ForecastMethod::Lstm) > get(ForecastMethod::Bp),
        "LSTM must beat BP"
    );
    assert!(
        get(ForecastMethod::Bp) + 0.05 > get(ForecastMethod::Lr),
        "BP should not lose badly to LR"
    );
}

#[test]
#[ignore = "minutes-long shape test; run with --release -- --ignored"]
fn figure_6_overnight_hours_are_most_predictable() {
    let cfg = shape_config(43);
    let forecast = train_forecasters(&cfg, EmsMethod::Pfdrl);
    let eval = evaluate_forecast(&cfg, &forecast);
    // 2-6 AM accuracy beats the 7-10 AM morning scramble on average
    // (outside the scheduled standby bumps the night is flat standby).
    let night: f64 = (2..6).map(|h| eval.hourly[h]).sum::<f64>() / 4.0;
    let morning: f64 = (7..10).map(|h| eval.hourly[h]).sum::<f64>() / 3.0;
    assert!(
        night > morning,
        "night {night:.3} should beat morning {morning:.3}: {:?}",
        eval.hourly
    );
}

#[test]
#[ignore = "minutes-long shape test; run with --release -- --ignored"]
fn figure_9_sharing_methods_converge_faster() {
    // PFDRL (EMS sharing) reaches 80% of its converged saving earlier
    // than Local (no sharing), and both end with high saved fractions.
    let cfg = shape_config(44);
    let pfdrl = run_method(&cfg, EmsMethod::Pfdrl);
    let local = run_method(&cfg, EmsMethod::Local);
    let pf_day = pfdrl.days_to_converge(0.8).expect("PFDRL converges");
    let lo_day = local.days_to_converge(0.8).expect("Local converges");
    assert!(
        pf_day <= lo_day,
        "PFDRL (day {pf_day}) should converge no later than Local (day {lo_day})"
    );
    assert!(
        pfdrl.converged_saved_fraction() > 0.7,
        "PFDRL saves most standby energy"
    );
}

#[test]
#[ignore = "minutes-long shape test; run with --release -- --ignored"]
fn figure_14_frl_is_the_communication_heavyweight() {
    let cfg = shape_config(45);
    let frl = run_method(&cfg, EmsMethod::Frl);
    let pfdrl = run_method(&cfg, EmsMethod::Pfdrl);
    let fl = run_method(&cfg, EmsMethod::Fl);
    // FRL federates forecasters AND full DRL models through the cloud.
    assert!(
        frl.ems.comm_s > pfdrl.ems.comm_s,
        "FRL EMS comm {:.2}s should exceed PFDRL {:.2}s",
        frl.ems.comm_s,
        pfdrl.ems.comm_s
    );
    assert!(fl.ems.comm_s == 0.0, "FL does not federate the DRL");
}

#[test]
#[ignore = "minutes-long shape test; run with --release -- --ignored"]
fn headline_pfdrl_saves_most_standby_energy() {
    // Paper: 98% of standby energy saved per day; we assert > 85% at
    // reduced scale, with low comfort violations.
    let cfg = shape_config(46);
    let run = run_method(&cfg, EmsMethod::Pfdrl);
    let saved = run.converged_saved_fraction();
    assert!(saved > 0.85, "converged saving {saved:.3}");
    let violation_rate =
        run.ems.account.comfort_violation_minutes as f64 / run.ems.account.minutes as f64;
    assert!(
        violation_rate < 0.15,
        "comfort violations {violation_rate:.3}"
    );
}
