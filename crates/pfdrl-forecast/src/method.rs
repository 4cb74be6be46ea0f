//! Method selection: the four compared forecasting algorithms.

use crate::bp::BpNetwork;
use crate::forecaster::{Forecaster, TrainConfig};
use crate::lstm_forecaster::LstmForecaster;
use crate::svr::{SvrConfig, SvrRegressor};
use serde::{Deserialize, Serialize};

/// The paper's four load-forecasting methods (§4, "Compared Methods").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ForecastMethod {
    /// Linear regression \[32\].
    Lr,
    /// Support vector machine \[7\].
    Svm,
    /// Back-propagation network \[28\].
    Bp,
    /// Long short-term memory \[26\].
    Lstm,
}

impl ForecastMethod {
    /// All methods in the paper's presentation order.
    pub const ALL: [ForecastMethod; 4] = [
        ForecastMethod::Lr,
        ForecastMethod::Svm,
        ForecastMethod::Bp,
        ForecastMethod::Lstm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ForecastMethod::Lr => "LR",
            ForecastMethod::Svm => "SVM",
            ForecastMethod::Bp => "BP",
            ForecastMethod::Lstm => "LSTM",
        }
    }

    /// Instantiates a fresh forecaster of this method. LR is the BP
    /// network with no hidden layer.
    pub fn build(self, feature_dim: usize, cfg: TrainConfig) -> Box<dyn Forecaster> {
        match self {
            ForecastMethod::Lr => Box::new(BpNetwork::with_hidden(feature_dim, &[], cfg)),
            ForecastMethod::Svm => Box::new(SvrRegressor::new(
                feature_dim,
                SvrConfig {
                    train: cfg,
                    ..Default::default()
                },
            )),
            ForecastMethod::Bp => Box::new(BpNetwork::new(feature_dim, cfg)),
            ForecastMethod::Lstm => Box::new(LstmForecaster::new(feature_dim, cfg)),
        }
    }
}

impl std::fmt::Display for ForecastMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_method_with_matching_name() {
        for m in ForecastMethod::ALL {
            let fc = m.build(10, TrainConfig::default());
            assert_eq!(fc.method_name(), m.name());
        }
    }

    #[test]
    fn built_forecasters_predict_finite_values() {
        let input = vec![vec![0.1; 10]];
        for m in ForecastMethod::ALL {
            let fc = m.build(10, TrainConfig::default());
            let p = fc.predict(&input);
            assert_eq!(p.len(), 1);
            assert!(p[0].is_finite(), "{m} produced {p:?}");
        }
    }

    #[test]
    fn every_backend_rejects_an_empty_fit() {
        let empty = pfdrl_data::SupervisedSet {
            inputs: vec![],
            targets: vec![],
            window: 8,
            horizon: 1,
            scale: 1.0,
            transform: Default::default(),
        };
        for m in ForecastMethod::ALL {
            let mut fc = m.build(empty.feature_dim(), TrainConfig::default());
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fc.fit(&empty)))
                .expect_err("fit on an empty set must panic");
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| err.downcast_ref::<String>().map(String::as_str))
                .unwrap_or_default();
            assert!(msg.contains("fit on empty dataset"), "{m}: {msg:?}");
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(ForecastMethod::Lstm.to_string(), "LSTM");
    }
}
