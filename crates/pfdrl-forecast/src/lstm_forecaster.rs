//! LSTM forecaster — the paper's best method ("it can capture the
//! long-term pattern based on the memory cell").
//!
//! The flat window features are unrolled into a sequence: step `t`
//! receives `[watt_t, sin, cos]`, with the time features repeated at
//! every step so the recurrence can condition on time of day throughout.

use crate::common::batch_targets_into;
use crate::forecaster::{
    fit_epochs, FitReport, Forecaster, Precision, PredictWorkspace, TrainConfig,
};
use pfdrl_data::SupervisedSet;
use pfdrl_nn::{loss, F32Lstm, F32LstmScratch, Layered, Lstm, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// LSTM regressor over the supervised window features.
///
/// In `Precision::F32Fast` mode the forecaster keeps an [`F32Lstm`]
/// inference mirror alongside the f64 master network. The mirror is
/// derived state: it is re-quantized from the master's exact bits after
/// every weight mutation (end of [`Forecaster::fit_budget`], every
/// [`Layered::import_layer`] — which covers federation merges, cloud
/// pushes and snapshot restores), so `predict`/`predict_into` stay
/// `&self`-pure and the f64 master remains the only trained,
/// snapshotted, federated state.
#[derive(Debug, Clone)]
pub struct LstmForecaster {
    net: Lstm,
    window: usize,
    cfg: TrainConfig,
    precision: Precision,
    mirror: Option<F32Lstm>,
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
            precision: Precision::F64,
            mirror: None,
        }
    }

    /// Re-quantizes the f32 mirror from the f64 master. Called at every
    /// `&mut self` point that can change weights; a no-op in f64 mode.
    fn refresh_mirror(&mut self) {
        if self.precision == Precision::F32Fast {
            let mirror = self.mirror.get_or_insert_with(F32Lstm::default);
            self.net.quantize_f32_into(mirror);
        }
    }

    /// The active f32 mirror, if the forecaster is in `F32Fast` mode.
    fn active_mirror(&self) -> Option<&F32Lstm> {
        match self.precision {
            Precision::F32Fast => self.mirror.as_ref(),
            Precision::F64 => None,
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
        // Federation merges / cloud pushes / snapshot restores all land
        // here — the mirror must follow the new master bits.
        self.refresh_mirror();
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
        let report = fit_epochs(set, &self.cfg, max_epochs, |chunk, opt| {
            sequence_into(self.window, &set.inputs, chunk, &mut seq);
            batch_targets_into(&set.targets, chunk, &mut t);
            net.zero_grad();
            let y = net.forward_ws(&seq);
            let l = loss::mse_into(y, &t, &mut grad);
            net.backward(&grad);
            opt.step_fused(net.param_tensor_count(), |f| net.for_each_param_grad(f));
            l
        });
        self.refresh_mirror();
        report
    }

    fn predict(&self, inputs: &[Vec<f64>]) -> Vec<f64> {
        if inputs.is_empty() {
            return Vec::new();
        }
        if let Some(mirror) = self.active_mirror() {
            // Route through the same flat-window kernel as
            // `predict_into` (fresh scratch) so both entry points stay
            // bit-identical in f32 mode too.
            let flat = Matrix::from_fn(inputs.len(), self.window + 2, |r, c| inputs[r][c]);
            let mut out = Vec::new();
            mirror.infer_windows_into(&flat, self.window, &mut F32LstmScratch::default(), &mut out);
            return out;
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
        if let Some(mirror) = self.active_mirror() {
            mirror.infer_windows_into(inputs, self.window, &mut ws.lstm_f32, out);
            return;
        }
        // `infer_windows` consumes the flat window rows directly — the
        // same `[w_t, sin, cos]` unroll as `to_sequence`, bit for bit,
        // without materializing the per-step matrices.
        let y = self.net.infer_windows(inputs, self.window, &mut ws.lstm);
        out.extend_from_slice(y.as_slice());
    }

    fn set_precision(&mut self, precision: Precision) {
        self.precision = precision;
        match precision {
            Precision::F32Fast => self.refresh_mirror(),
            Precision::F64 => self.mirror = None,
        }
    }

    fn precision(&self) -> Precision {
        self.precision
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

    fn fitted_pair() -> (LstmForecaster, SupervisedSet) {
        let trace: Vec<f64> = (0..600)
            .map(|t| 40.0 + 30.0 * (t as f64 / 19.0).sin())
            .collect();
        let set = build_windows(&trace, 80.0, 8, 1, 0).strided(2);
        let cfg = TrainConfig {
            max_epochs: 4,
            ..TrainConfig::with_seed(7)
        };
        let mut fc = LstmForecaster::with_hidden(set.feature_dim(), 12, cfg);
        let _ = fc.fit(&set);
        (fc, set)
    }

    #[test]
    fn f32_mode_tracks_f64_and_is_deterministic() {
        let (mut fc, set) = fitted_pair();
        let y64 = fc.predict(&set.inputs);
        fc.set_precision(Precision::F32Fast);
        assert_eq!(fc.precision(), Precision::F32Fast);
        let y32 = fc.predict(&set.inputs);
        let y32b = fc.predict(&set.inputs);
        assert_eq!(
            y32.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y32b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        for (a, b) in y32.iter().zip(&y64) {
            assert!((a - b).abs() < 1e-3, "f32 drifted too far: {a} vs {b}");
        }
        // Back to f64 restores the exact master bits.
        fc.set_precision(Precision::F64);
        let y64b = fc.predict(&set.inputs);
        assert_eq!(
            y64.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y64b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn f32_predict_into_matches_predict_bitwise() {
        let (mut fc, set) = fitted_pair();
        fc.set_precision(Precision::F32Fast);
        let oracle = fc.predict(&set.inputs);
        let flat = Matrix::from_fn(set.len(), set.feature_dim(), |r, c| set.inputs[r][c]);
        let mut ws = PredictWorkspace::default();
        let mut out = Vec::new();
        fc.predict_into(&flat, &mut ws, &mut out);
        assert_eq!(
            oracle.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn import_layer_refreshes_f32_mirror() {
        let (mut fc, set) = fitted_pair();
        fc.set_precision(Precision::F32Fast);
        let before = fc.predict(&set.inputs);
        let layer0: Vec<f64> = fc.export_layer(0).iter().map(|v| v + 0.05).collect();
        fc.import_layer(0, &layer0);
        let after = fc.predict(&set.inputs);
        assert!(
            before.iter().zip(&after).any(|(a, b)| (a - b).abs() > 1e-9),
            "mirror must follow imported weights"
        );
    }
}
