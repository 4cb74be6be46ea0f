//! # pfdrl-core
//!
//! The PFDRL system itself: the five compared EMS pipelines (Local,
//! Cloud, FL, FRL, PFDRL), the rayon-parallel neighbourhood simulation
//! driver, and the experiment runners that regenerate every table and
//! figure of the paper.
//!
//! ## Pipeline anatomy
//!
//! 1. **Forecast phase** ([`forecast::train_forecasters`]) — per-device
//!    load forecasters are trained under the method's architecture
//!    (local / centralized cloud / FedAvg / decentralized LAN).
//! 2. **EMS phase** ([`ems::EmsState`], run by [`runner::run_method`]) —
//!    DQN agents control device modes minute by minute over the
//!    evaluation days, learning online, with the method's DRL federation
//!    (none / full cloud FedAvg / α-layer LAN broadcast with personal
//!    layers kept local).
//!
//! ## Example
//!
//! ```no_run
//! use pfdrl_core::{SimConfig, EmsMethod, runner::run_method};
//!
//! let cfg = SimConfig::with_seed(7);
//! let run = run_method(&cfg, EmsMethod::Pfdrl);
//! println!("saved {:.1}% of standby energy",
//!          100.0 * run.converged_saved_fraction());
//! ```

pub mod config;
pub mod ems;
pub mod eval;
pub mod experiment;
pub mod forecast;
pub mod method;
pub mod runner;

pub use config::{CheckpointPolicy, SimConfig};
pub use ems::{
    predict_day_into, predict_span_into, run_device_span, DrlFederation, EmsPhase, EmsState,
    HealthState, HomeHealth, HomeTally, PredictDayWorkspace,
};
pub use eval::{evaluate_forecast, ForecastEval};
pub use forecast::{train_forecasters, ForecastPhase};
pub use method::EmsMethod;
pub use pfdrl_fl::AggregationMode;
pub use runner::{
    run_method, run_method_resumable, run_method_resume_from, MethodRun, ResumableRun, RunResult,
};
