//! # pfdrl-forecast
//!
//! Per-device load forecasting for the PFDRL reproduction: the four
//! compared algorithms (linear regression, support-vector regression,
//! back-propagation MLP, LSTM) behind one [`Forecaster`] trait, plus the
//! paper's accuracy metrics. Linear regression is the BP network with no
//! hidden layer, and all four train through one epoch loop.
//!
//! Every forecaster also implements `pfdrl_nn::Layered`, so the
//! decentralized federation in `pfdrl-fl` can broadcast and average any
//! of them without knowing which algorithm is inside.
//!
//! ## Example
//!
//! ```
//! use pfdrl_data::{GeneratorConfig, TraceGenerator, build_windows};
//! use pfdrl_forecast::{ForecastMethod, TrainConfig, Forecaster, metrics};
//!
//! // One device, eight days of minutes; train on the first 80%.
//! let gen = TraceGenerator::new(GeneratorConfig::with_seed(1));
//! let watts = gen.multi_day_watts(0, 0, 0..8);
//! let scale = gen.household(0).devices[0].on_watts;
//! let set = pfdrl_data::build_windows(&watts, scale, 16, 15, 0).strided(11);
//! let (train, test) = set.split(0.8);
//!
//! let mut model = ForecastMethod::Lr.build(set.feature_dim(), TrainConfig::quick(7));
//! model.fit(&train);
//! let preds: Vec<f64> = model.predict(&test.inputs)
//!     .iter().map(|p| test.to_watts(*p)).collect();
//! let real: Vec<f64> = test.targets.iter().map(|t| test.to_watts(*t)).collect();
//! let acc = metrics::paper_accuracy(&preds, &real, 1.0).unwrap();
//! assert!(acc > 0.5); // even LR beats coin-flip accuracy here
//! ```

mod common;

pub mod bp;
pub mod forecaster;
pub mod lstm_forecaster;
pub mod method;
pub mod metrics;
pub mod svr;

pub use bp::BpNetwork;
pub use forecaster::{FitReport, Forecaster, PredictWorkspace, TrainConfig};
pub use lstm_forecaster::LstmForecaster;
pub use method::ForecastMethod;
pub use svr::{SvrConfig, SvrRegressor};
