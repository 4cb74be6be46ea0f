//! # pfdrl-env
//!
//! The MDP of the paper's energy-management problem (§3.3.1): device-mode
//! classification with the ±10 % bands, the Table 1 reward function, the
//! minute-level [`DeviceEnv`] episode, and the [`EnergyAccount`] metrics
//! (saved standby energy, comfort violations).
//!
//! ## Example
//!
//! ```
//! use pfdrl_data::{DeviceType, Mode};
//! use pfdrl_env::{DeviceEnv, EnvConfig, reward::reward};
//!
//! let spec = DeviceType::Tv.nominal_spec();
//! // Four minutes of standby, perfectly forecast.
//! let watts = vec![spec.standby_watts; 4];
//! let modes = vec![Mode::Standby; 4];
//! let mut env = DeviceEnv::new(spec, watts.clone(), watts, modes,
//!                              EnvConfig { state_window: 2 });
//! env.reset();
//! let step = env.step(Mode::Off); // reclaim the standby minute
//! assert_eq!(step.reward, reward(Mode::Standby, Mode::Off)); // +30
//! ```

pub mod account;
pub mod classify;
pub mod env;
pub mod reward;

pub use account::EnergyAccount;
pub use classify::{classify, BAND};
pub use env::{DaySeries, DeviceEnv, EnvConfig, Step};
pub use reward::reward;
