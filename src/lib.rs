//! # pfdrl
//!
//! A complete Rust reproduction of *PFDRL: Personalized Federated Deep
//! Reinforcement Learning for Residential Energy Management* (Gao et
//! al., ICPP 2023): decentralized federated load forecasting, DQN-based
//! standby-energy management, and base/personalization layer splitting —
//! plus every substrate (neural networks, synthetic Pecan-Street-style
//! data, the federation transport) built from scratch.
//!
//! This crate is a facade; each subsystem lives in its own crate:
//!
//! | crate | contents |
//! |---|---|
//! | [`nn`] | matrices, dense/LSTM layers, backprop, losses, optimizers |
//! | [`data`] | synthetic household traces, tariffs, Dataport CSV loader |
//! | [`forecast`] | LR / SVR / BP / LSTM forecasters + accuracy metrics |
//! | [`env`](mod@env) | device-mode MDP, Table 1 reward, energy accounting |
//! | [`drl`] | DQN agent with replay and target network |
//! | [`fl`] | broadcast bus, FedAvg, α layer split, cloud baseline |
//! | [`store`] | durable checkpoints: versioned `PFDS` snapshots, resume |
//! | [`core`] | the five EMS pipelines and every experiment runner |
//! | [`serve`] | streaming ingestion + online inference service mode |
//!
//! ## Quickstart
//!
//! ```no_run
//! use pfdrl::core::{SimConfig, EmsMethod, runner::run_method};
//!
//! let cfg = SimConfig::with_seed(7);
//! let run = run_method(&cfg, EmsMethod::Pfdrl);
//! println!("saved {:.1}% of standby energy",
//!          100.0 * run.converged_saved_fraction());
//! ```

pub use pfdrl_core as core;
pub use pfdrl_data as data;
pub use pfdrl_drl as drl;
pub use pfdrl_env as env;
pub use pfdrl_fl as fl;
pub use pfdrl_forecast as forecast;
pub use pfdrl_nn as nn;
pub use pfdrl_serve as serve;
pub use pfdrl_store as store;
