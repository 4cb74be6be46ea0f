//! LSTM forecaster — the paper's best method ("it can capture the
//! long-term pattern based on the memory cell").
//!
//! The flat window features are unrolled into a sequence: step `t`
//! receives `[watt_t, sin, cos]`, with the time features repeated at
//! every step so the recurrence can condition on time of day throughout.

use crate::common::batch_targets_into;
use crate::forecaster::{fit_epochs, FitReport, Forecaster, PredictWorkspace, TrainConfig};
use pfdrl_data::SupervisedSet;
use pfdrl_nn::{loss, Layered, Lstm, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// LSTM regressor over the supervised window features.
#[derive(Debug, Clone)]
pub struct LstmForecaster {
    net: Lstm,
    window: usize,
    cfg: TrainConfig,
}

impl LstmForecaster {
    /// `feature_dim` must be `window + 2` (the [`SupervisedSet`] layout).
    pub fn new(feature_dim: usize, cfg: TrainConfig) -> Self {
        Self::with_hidden(feature_dim, 24, cfg)
    }

    pub fn with_hidden(feature_dim: usize, hidden: usize, cfg: TrainConfig) -> Self {
        assert!(
            feature_dim > 2,
            "feature_dim must be window + 2 with window >= 1"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let net = Lstm::new(3, hidden, 1, &mut rng);
        LstmForecaster {
            net,
            window: feature_dim - 2,
            cfg,
        }
    }

    /// Unrolls a batch of flat feature vectors into per-timestep input
    /// matrices of `[watt, sin, cos]`.
    fn to_sequence(&self, inputs: &[Vec<f64>], idx: &[usize]) -> Vec<Matrix> {
        let mut seq = Vec::new();
        sequence_into(self.window, inputs, idx, &mut seq);
        seq
    }
}

/// Allocation-free [`LstmForecaster::to_sequence`]: reuses the step
/// matrices held in `seq` (truncated/extended to `window` steps, every
/// entry overwritten).
fn sequence_into(window: usize, inputs: &[Vec<f64>], idx: &[usize], seq: &mut Vec<Matrix>) {
    let batch = idx.len();
    seq.resize(window, Matrix::default());
    for (t, m) in seq.iter_mut().enumerate() {
        m.resize(batch, 3);
        for (r, &i) in idx.iter().enumerate() {
            let f = &inputs[i];
            debug_assert_eq!(f.len(), window + 2);
            let row = m.row_mut(r);
            row[0] = f[t];
            row[1] = f[window];
            row[2] = f[window + 1];
        }
    }
}

impl Layered for LstmForecaster {
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

impl Forecaster for LstmForecaster {
    fn fit(&mut self, set: &SupervisedSet) -> FitReport {
        self.fit_budget(set, self.cfg.max_epochs)
    }

    fn fit_budget(&mut self, set: &SupervisedSet, max_epochs: usize) -> FitReport {
        assert_eq!(
            set.feature_dim(),
            self.window + 2,
            "dataset window mismatch"
        );
        // Sequence/target/gradient buffers reused across every BPTT step.
        let mut seq = Vec::new();
        let (mut t, mut grad) = (Matrix::default(), Matrix::default());
        let net = &mut self.net;
        fit_epochs(set, &self.cfg, max_epochs, |chunk, opt| {
            sequence_into(self.window, &set.inputs, chunk, &mut seq);
            batch_targets_into(&set.targets, chunk, &mut t);
            net.zero_grad();
            let y = net.forward_ws(&seq);
            let l = loss::mse_into(y, &t, &mut grad);
            net.backward(&grad);
            opt.step_fused(net.param_tensor_count(), |f| net.for_each_param_grad(f));
            l
        })
    }

    fn predict(&self, inputs: &[Vec<f64>]) -> Vec<f64> {
        if inputs.is_empty() {
            return Vec::new();
        }
        let idx: Vec<usize> = (0..inputs.len()).collect();
        let seq = self.to_sequence(inputs, &idx);
        self.net.infer(&seq).as_slice().to_vec()
    }

    fn predict_into(&self, inputs: &Matrix, ws: &mut PredictWorkspace, out: &mut Vec<f64>) {
        out.clear();
        if inputs.rows() == 0 {
            return;
        }
        debug_assert_eq!(inputs.cols(), self.window + 2);
        // `infer_windows` consumes the flat window rows directly — the
        // same `[w_t, sin, cos]` unroll as `to_sequence`, bit for bit,
        // without materializing the per-step matrices.
        let y = self.net.infer_windows(inputs, self.window, &mut ws.lstm);
        out.extend_from_slice(y.as_slice());
    }

    fn method_name(&self) -> &'static str {
        "LSTM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfdrl_data::build_windows;

    #[test]
    fn learns_periodic_mode_signal() {
        // Smooth periodic signal; the recurrence must track the phase.
        let trace: Vec<f64> = (0..2400)
            .map(|t| 50.0 + 45.0 * (t as f64 / 25.0).sin())
            .collect();
        let set = build_windows(&trace, 100.0, 12, 1, 0).strided(3);
        let (train, test) = set.split(0.8);
        let cfg = TrainConfig {
            max_epochs: 30,
            ..TrainConfig::with_seed(10)
        };
        let mut lstm = LstmForecaster::new(set.feature_dim(), cfg);
        let report = lstm.fit(&train);
        assert!(report.final_loss < 0.01, "train loss {}", report.final_loss);
        let preds = lstm.predict(&test.inputs);
        let rmse = (preds
            .iter()
            .zip(test.targets.iter())
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / preds.len() as f64)
            .sqrt();
        assert!(rmse < 0.1, "test RMSE {rmse}");
    }

    #[test]
    fn sequence_unroll_layout() {
        let fc = LstmForecaster::new(6, TrainConfig::default()); // window 4
        let inputs = vec![vec![0.1, 0.2, 0.3, 0.4, 0.9, -0.9]];
        let seq = fc.to_sequence(&inputs, &[0]);
        assert_eq!(seq.len(), 4);
        assert_eq!(seq[0].row(0), &[0.1, 0.9, -0.9]);
        assert_eq!(seq[3].row(0), &[0.4, 0.9, -0.9]);
    }

    #[test]
    fn has_two_federation_layers() {
        let fc = LstmForecaster::new(10, TrainConfig::default());
        assert_eq!(fc.layer_count(), 2);
    }

    #[test]
    #[should_panic(expected = "window mismatch")]
    fn fit_rejects_mismatched_window() {
        let trace: Vec<f64> = (0..100).map(|t| t as f64).collect();
        let set = build_windows(&trace, 10.0, 8, 1, 0);
        let mut fc = LstmForecaster::new(6, TrainConfig::default()); // expects window 4
        let _ = fc.fit(&set);
    }

    #[test]
    fn predict_empty_is_empty() {
        let fc = LstmForecaster::new(6, TrainConfig::default());
        assert!(fc.predict(&[]).is_empty());
    }
}
