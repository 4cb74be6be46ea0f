//! # pfdrl-data
//!
//! Synthetic Pecan-Street-like residential energy data for the PFDRL
//! reproduction, plus the Texas tariff models and a Dataport-format CSV
//! loader for the real thing.
//!
//! The real Pecan Street Dataport is access-gated, so this crate
//! reproduces the statistical structure the paper's results rest on:
//!
//! * every device has three power levels (off / standby / on) with
//!   meter noise kept inside the paper's ±10 % classification bands;
//! * usage follows archetype-specific diurnal activity curves with a
//!   predictable overnight/early-afternoon regime and noisy mornings and
//!   evenings (Figures 6 and 11);
//! * households are heterogeneous (non-IID): device power levels and
//!   usage statistics are jittered per home, activity curves are phase
//!   shifted, and archetype diversity grows once more than 100 homes
//!   participate (Figure 8).
//!
//! Traces are generated lazily and deterministically from a single seed —
//! any `(household, device, day)` cell can be regenerated bit-identically
//! without storing a year of minute data.
//!
//! ## Example
//!
//! ```
//! use pfdrl_data::{GeneratorConfig, TraceGenerator};
//!
//! let gen = TraceGenerator::new(GeneratorConfig::with_seed(7));
//! let home = gen.household(0);
//! let trace = gen.day_trace(0, 0, 0); // household 0, first device, day 0
//! assert_eq!(trace.watts.len(), 1440);
//! println!("{} used {:.2} kWh, {:.3} kWh of it in standby",
//!          home.devices[0].device_type.name(),
//!          trace.total_kwh(), trace.standby_kwh());
//! ```

pub mod archetype;
pub mod csv;
pub mod dataset;
pub mod device;
pub mod mode;
pub mod price;
pub mod rng;
pub mod schedule;
pub mod sensor_fault;
pub mod trace;

pub use archetype::Archetype;
pub use dataset::{build_windows, SupervisedSet};
pub use device::{DeviceSpec, DeviceType};
pub use mode::Mode;
pub use price::{PricePlan, FIXED_RATE_CENTS};
pub use schedule::MINUTES_PER_DAY;
pub use sensor_fault::{impute_forward_fill, SensorFaultConfig, SensorFaultPlan, WATT_CEILING};
pub use trace::{
    hvac_seasonal_factor, month_of_day, DayTrace, GeneratorConfig, HouseholdSpec, TraceGenerator,
    DAYS_PER_YEAR,
};
