//! Back-propagation network (BP) forecaster — a plain MLP, the paper's
//! third-best method ("easy to fall into a local extreme value").
//!
//! With no hidden layer the same network is a single identity dense
//! layer, which is the linear-regression (LR) baseline, the weakest in
//! Figures 5–8 ("for LR, it's normal to face under-fitting").

use crate::common::{batch_inputs, batch_inputs_into, batch_targets_into};
use crate::forecaster::{fit_epochs, FitReport, Forecaster, PredictWorkspace, TrainConfig};
use pfdrl_data::SupervisedSet;
use pfdrl_nn::{loss, Activation, Layered, Matrix, Mlp};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// ReLU MLP regressor; LR when it has no hidden layer.
#[derive(Debug, Clone)]
pub struct BpNetwork {
    net: Mlp,
    cfg: TrainConfig,
}

impl BpNetwork {
    /// Default architecture: `[dim, 48, 24, 1]`.
    pub fn new(feature_dim: usize, cfg: TrainConfig) -> Self {
        Self::with_hidden(feature_dim, &[48, 24], cfg)
    }

    /// Custom hidden widths; `&[]` is linear regression.
    pub fn with_hidden(feature_dim: usize, hidden: &[usize], cfg: TrainConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut dims = vec![feature_dim];
        dims.extend_from_slice(hidden);
        dims.push(1);
        let net = Mlp::new(&dims, Activation::Relu, Activation::Identity, &mut rng);
        BpNetwork { net, cfg }
    }
}

impl Layered for BpNetwork {
    fn layer_count(&self) -> usize {
        self.net.layer_count()
    }
    fn layer_param_count(&self, i: usize) -> usize {
        self.net.layer_param_count(i)
    }
    fn export_layer(&self, i: usize) -> Vec<f64> {
        self.net.export_layer(i)
    }
    fn import_layer(&mut self, i: usize, data: &[f64]) {
        self.net.import_layer(i, data);
    }
}

impl Forecaster for BpNetwork {
    fn fit(&mut self, set: &SupervisedSet) -> FitReport {
        self.fit_budget(set, self.cfg.max_epochs)
    }

    fn fit_budget(&mut self, set: &SupervisedSet, max_epochs: usize) -> FitReport {
        // Batch/gradient buffers reused across every step of the fit.
        let (mut x, mut t, mut grad) = (Matrix::default(), Matrix::default(), Matrix::default());
        let net = &mut self.net;
        fit_epochs(set, &self.cfg, max_epochs, |chunk, opt| {
            batch_inputs_into(&set.inputs, chunk, &mut x);
            batch_targets_into(&set.targets, chunk, &mut t);
            net.zero_grad();
            let y = net.forward_ws(&x);
            let l = loss::mse_into(y, &t, &mut grad);
            net.backward_ws(&x, &grad);
            opt.step_fused(net.param_tensor_count(), |f| net.for_each_param_grad(f));
            l
        })
    }

    fn predict(&self, inputs: &[Vec<f64>]) -> Vec<f64> {
        if inputs.is_empty() {
            return Vec::new();
        }
        let idx: Vec<usize> = (0..inputs.len()).collect();
        self.net
            .infer(&batch_inputs(inputs, &idx))
            .as_slice()
            .to_vec()
    }

    fn predict_into(&self, inputs: &Matrix, ws: &mut PredictWorkspace, out: &mut Vec<f64>) {
        out.clear();
        if inputs.rows() == 0 {
            return;
        }
        let y = self.net.infer_scratch(inputs, &mut ws.a, &mut ws.b);
        out.extend_from_slice(y.as_slice());
    }

    fn method_name(&self) -> &'static str {
        if self.net.layer_count() == 1 {
            "LR"
        } else {
            "BP"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfdrl_data::build_windows;

    /// The LR baseline: no hidden layer.
    fn linear(feature_dim: usize, cfg: TrainConfig) -> BpNetwork {
        BpNetwork::with_hidden(feature_dim, &[], cfg)
    }

    fn linear_trace(n: usize) -> Vec<f64> {
        // A sinusoid satisfies the two-lag harmonic recurrence
        // y_t = 2cos(w) y_{t-1} - y_{t-2}, so it is exactly linear in any
        // window of >= 2 lags — ideal territory for LR.
        (0..n)
            .map(|t| 50.0 + 40.0 * (t as f64 / 20.0).sin())
            .collect()
    }

    #[test]
    fn lr_fits_linear_signal_well() {
        let set = build_windows(&linear_trace(800), 100.0, 8, 1, 0);
        let (train, test) = set.split(0.8);
        let cfg = TrainConfig {
            max_epochs: 80,
            ..TrainConfig::with_seed(3)
        };
        let mut lr = linear(set.feature_dim(), cfg);
        let report = lr.fit(&train);
        assert!(report.final_loss < 1e-2, "loss {}", report.final_loss);
        let preds = lr.predict(&test.inputs);
        let err: f64 = preds
            .iter()
            .zip(test.targets.iter())
            .map(|(p, t)| (p - t).abs())
            .sum::<f64>()
            / preds.len() as f64;
        assert!(err < 0.05, "test MAE {err}");
    }

    #[test]
    fn lr_underfits_nonlinear_signal() {
        // A thresholded (mode-like) signal is not linear in the window;
        // LR should leave visible residual error.
        let trace: Vec<f64> = (0..2000)
            .map(|t| if (t / 97) % 2 == 0 { 3.0 } else { 100.0 })
            .collect();
        let set = build_windows(&trace, 100.0, 8, 5, 0);
        let (train, test) = set.split(0.8);
        let mut lr = linear(set.feature_dim(), TrainConfig::with_seed(4));
        lr.fit(&train);
        let preds = lr.predict(&test.inputs);
        let rmse = (preds
            .iter()
            .zip(test.targets.iter())
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / preds.len() as f64)
            .sqrt();
        assert!(
            rmse > 0.02,
            "LR unexpectedly nailed a nonlinear signal, RMSE {rmse}"
        );
    }

    #[test]
    fn lr_predict_one_matches_batch() {
        let set = build_windows(&linear_trace(200), 10.0, 8, 1, 0);
        let lr = linear(set.feature_dim(), TrainConfig::with_seed(5));
        let one = lr.predict_one(&set.inputs[3]);
        let batch = lr.predict(&set.inputs[..5]);
        assert!((one - batch[3]).abs() < 1e-12);
    }

    #[test]
    fn lr_is_one_weight_layer_named_lr() {
        let lr = crate::ForecastMethod::Lr.build(10, TrainConfig::default());
        assert_eq!(lr.method_name(), "LR");
        assert_eq!(lr.layer_count(), 1);
        assert_eq!(lr.layer_param_count(0), 11); // 10 weights + bias
    }

    #[test]
    fn learns_nonlinear_threshold_signal() {
        // Square-wave signal (mode-like): nonlinear in the window, which
        // LR cannot capture but an MLP can.
        let trace: Vec<f64> = (0..3000)
            .map(|t| if (t / 120) % 2 == 0 { 5.0 } else { 95.0 })
            .collect();
        let set = build_windows(&trace, 100.0, 8, 1, 0).strided(3);
        let (train, test) = set.split(0.8);
        let mut bp = BpNetwork::new(set.feature_dim(), TrainConfig::with_seed(6));
        let report = bp.fit(&train);
        assert!(report.final_loss < 0.02, "train loss {}", report.final_loss);
        let preds = bp.predict(&test.inputs);
        let rmse = (preds
            .iter()
            .zip(test.targets.iter())
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / preds.len() as f64)
            .sqrt();
        assert!(rmse < 0.15, "test RMSE {rmse}");
    }

    #[test]
    fn has_three_layers_by_default() {
        let bp = BpNetwork::new(10, TrainConfig::default());
        assert_eq!(bp.layer_count(), 3);
    }

    #[test]
    fn custom_hidden_widths_respected() {
        let bp = BpNetwork::with_hidden(10, &[32], TrainConfig::default());
        assert_eq!(bp.layer_count(), 2);
        assert_eq!(bp.layer_param_count(0), 10 * 32 + 32);
        assert_eq!(bp.layer_param_count(1), 32 + 1);
    }

    #[test]
    fn federation_round_trip_changes_predictions() {
        let a = BpNetwork::new(6, TrainConfig::with_seed(1));
        let mut b = BpNetwork::new(6, TrainConfig::with_seed(2));
        let input = vec![vec![0.5, 0.1, -0.3, 0.2, 0.9, -0.6]];
        let before = b.predict(&input)[0];
        b.import_all(&a.export_all());
        let after = b.predict(&input)[0];
        assert_ne!(before, after);
        assert_eq!(after, a.predict(&input)[0]);
    }
}
