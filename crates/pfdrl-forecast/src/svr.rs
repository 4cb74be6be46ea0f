//! Support-vector regression forecaster.
//!
//! The paper's SVM baseline is reproduced as ε-insensitive support-vector
//! regression in the primal: a random-Fourier-feature (RFF) map
//! approximates an RBF kernel, and a linear model on those fixed features
//! is trained by subgradient descent with L2 regularization — the same
//! model class as kernel SVR, with the same characteristic behaviour
//! (fixed features, degrades as data grows heterogeneous; "its
//! performance with large datasets is lower than the others").

use crate::forecaster::{fit_epochs, FitReport, Forecaster, PredictWorkspace, TrainConfig};
use pfdrl_data::SupervisedSet;
use pfdrl_nn::{Layered, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyperparameters specific to SVR.
#[derive(Debug, Clone)]
pub struct SvrConfig {
    /// Shared training loop settings.
    pub train: TrainConfig,
    /// ε of the ε-insensitive tube (normalized units).
    pub epsilon: f64,
    /// L2 regularization strength.
    pub lambda: f64,
    /// Number of random Fourier features.
    pub n_features: usize,
    /// RBF kernel bandwidth (features drawn from `N(0, 1/gamma²)` ...
    /// precisely, frequencies scale with `sqrt(2*gamma)`).
    pub gamma: f64,
}

impl Default for SvrConfig {
    fn default() -> Self {
        SvrConfig {
            train: TrainConfig::default(),
            epsilon: 0.005,
            lambda: 1e-5,
            n_features: 128,
            gamma: 0.5,
        }
    }
}

/// ε-SVR on a combined linear + random-Fourier-feature map (a linear +
/// RBF kernel mixture, as common in practical SVR setups).
#[derive(Debug, Clone)]
pub struct SvrRegressor {
    /// Input dimension (raw features pass through).
    in_dim: usize,
    /// Fixed random projection, `dim x n_features`.
    omega: Matrix,
    /// Fixed random phases.
    phases: Vec<f64>,
    /// Linear weights on `[x, rff(x)]` (+ bias at the end).
    w: Vec<f64>,
    cfg: SvrConfig,
}

impl SvrRegressor {
    pub fn new(feature_dim: usize, cfg: SvrConfig) -> Self {
        assert!(cfg.n_features > 0, "need at least one random feature");
        assert!(cfg.epsilon >= 0.0 && cfg.lambda >= 0.0 && cfg.gamma > 0.0);
        let mut rng = StdRng::seed_from_u64(cfg.train.seed.wrapping_add(77));
        let scale = (2.0 * cfg.gamma).sqrt();
        let omega = Matrix::from_fn(feature_dim, cfg.n_features, |_, _| {
            scale * pfdrl_data::schedule::standard_normal(&mut rng)
        });
        let phases = (0..cfg.n_features)
            .map(|_| rng.gen_range(0.0..2.0 * std::f64::consts::PI))
            .collect();
        let w = vec![0.0; feature_dim + cfg.n_features + 1];
        SvrRegressor {
            in_dim: feature_dim,
            omega,
            phases,
            w,
            cfg,
        }
    }

    /// Feature map: the raw input (linear-kernel part) followed by the
    /// RFF map `z_j(x) = sqrt(2/D) cos(omega_j . x + b_j)` (RBF part).
    fn transform(&self, input: &[f64]) -> Vec<f64> {
        let d = self.cfg.n_features;
        let norm = (2.0 / d as f64).sqrt();
        let x = Matrix::row_vector(input.to_vec());
        let proj = x.matmul(&self.omega);
        let mut out = Vec::with_capacity(self.in_dim + d);
        out.extend_from_slice(input);
        out.extend(
            proj.as_slice()
                .iter()
                .zip(self.phases.iter())
                .map(|(p, b)| norm * (p + b).cos()),
        );
        out
    }
}

/// The linear model on a feature vector: bias, then `w . z`.
fn predict_features(w: &[f64], z: &[f64]) -> f64 {
    let mut acc = w[w.len() - 1]; // bias
    for (w, z) in w.iter().zip(z.iter()) {
        acc += w * z;
    }
    acc
}

impl Layered for SvrRegressor {
    fn layer_count(&self) -> usize {
        1
    }
    fn layer_param_count(&self, i: usize) -> usize {
        assert_eq!(i, 0, "SVR has a single layer");
        self.w.len()
    }
    fn export_layer(&self, i: usize) -> Vec<f64> {
        assert_eq!(i, 0, "SVR has a single layer");
        self.w.clone()
    }
    fn import_layer(&mut self, i: usize, data: &[f64]) {
        assert_eq!(i, 0, "SVR has a single layer");
        assert_eq!(data.len(), self.w.len(), "SVR import length mismatch");
        self.w.copy_from_slice(data);
    }
}

impl Forecaster for SvrRegressor {
    fn fit(&mut self, set: &SupervisedSet) -> FitReport {
        self.fit_budget(set, self.cfg.train.max_epochs)
    }

    fn fit_budget(&mut self, set: &SupervisedSet, max_epochs: usize) -> FitReport {
        // Precompute the (fixed) feature map once per fit.
        let features: Vec<Vec<f64>> = set.inputs.iter().map(|x| self.transform(x)).collect();
        let SvrRegressor { w, cfg, .. } = self;
        let dim = w.len();
        let mut grad = vec![0.0; dim];
        fit_epochs(set, &cfg.train, max_epochs, |chunk, opt| {
            grad.fill(0.0);
            let mut batch_loss = 0.0;
            for &i in chunk {
                let z = &features[i];
                let err = predict_features(w, z) - set.targets[i];
                let excess = err.abs() - cfg.epsilon;
                if excess > 0.0 {
                    batch_loss += excess;
                    let s = err.signum() / chunk.len() as f64;
                    for (g, z) in grad.iter_mut().zip(z.iter()) {
                        *g += s * z;
                    }
                    grad[dim - 1] += s; // bias
                }
            }
            // L2 regularization (not on the bias).
            for (g, w) in grad.iter_mut().zip(w.iter()).take(dim - 1) {
                *g += cfg.lambda * w;
            }
            opt.step_fused(1, |f| f(0, w, &grad));
            batch_loss / chunk.len() as f64
        })
    }

    fn predict(&self, inputs: &[Vec<f64>]) -> Vec<f64> {
        inputs
            .iter()
            .map(|x| predict_features(&self.w, &self.transform(x)))
            .collect()
    }

    fn predict_into(&self, inputs: &Matrix, ws: &mut PredictWorkspace, out: &mut Vec<f64>) {
        out.clear();
        if inputs.rows() == 0 {
            return;
        }
        debug_assert_eq!(inputs.cols(), self.in_dim, "SVR feature width mismatch");
        // One batched projection replaces the per-row row-vector matmul;
        // each output row's accumulation chain is unchanged, so the
        // projections are bit-identical to `transform`'s.
        inputs.matmul_into(&self.omega, &mut ws.a);
        let norm = (2.0 / self.cfg.n_features as f64).sqrt();
        let (wx, w_rff) = self.w.split_at(self.in_dim);
        out.reserve(inputs.rows());
        for r in 0..inputs.rows() {
            // Same z-order as `transform` + `predict_features`: bias,
            // then raw inputs, then the cos features (computed on the
            // fly instead of materialized).
            let mut acc = self.w[self.w.len() - 1];
            for (w, z) in wx.iter().zip(inputs.row(r)) {
                acc += w * z;
            }
            for ((w, p), b) in w_rff.iter().zip(ws.a.row(r)).zip(self.phases.iter()) {
                acc += w * (norm * (p + b).cos());
            }
            out.push(acc);
        }
    }

    fn method_name(&self) -> &'static str {
        "SVM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfdrl_data::build_windows;

    fn svr_cfg(seed: u64) -> SvrConfig {
        SvrConfig {
            train: TrainConfig {
                max_epochs: 60,
                ..TrainConfig::with_seed(seed)
            },
            ..Default::default()
        }
    }

    #[test]
    fn fits_smooth_nonlinear_signal() {
        let trace: Vec<f64> = (0..2000)
            .map(|t| 50.0 + 40.0 * (t as f64 / 90.0).sin())
            .collect();
        let set = build_windows(&trace, 100.0, 8, 1, 0).strided(3);
        let (train, test) = set.split(0.8);
        let mut svr = SvrRegressor::new(set.feature_dim(), svr_cfg(8));
        svr.fit(&train);
        let preds = svr.predict(&test.inputs);
        let mae: f64 = preds
            .iter()
            .zip(test.targets.iter())
            .map(|(p, t)| (p - t).abs())
            .sum::<f64>()
            / preds.len() as f64;
        assert!(mae < 0.12, "SVR test MAE {mae}");
    }

    #[test]
    fn errors_inside_tube_produce_no_gradient() {
        // With a huge epsilon, the model never moves off initialization.
        let trace: Vec<f64> = (0..200).map(|t| (t % 7) as f64).collect();
        let set = build_windows(&trace, 10.0, 4, 1, 0);
        let cfg = SvrConfig {
            epsilon: 100.0,
            ..svr_cfg(1)
        };
        let mut svr = SvrRegressor::new(set.feature_dim(), cfg);
        let before = svr.export_layer(0);
        svr.fit(&set);
        // Only L2 shrinkage can act, and weights start at zero.
        assert_eq!(svr.export_layer(0), before);
    }

    #[test]
    fn transform_is_deterministic_and_bounded() {
        let svr = SvrRegressor::new(6, svr_cfg(9));
        let x = vec![0.5, -0.2, 0.1, 0.9, -0.7, 0.3];
        let z1 = svr.transform(&x);
        let z2 = svr.transform(&x);
        assert_eq!(z1, z2);
        // RFF part is bounded; the first in_dim entries are the raw input.
        assert_eq!(&z1[..6], &x[..]);
        let bound = (2.0 / 128.0_f64).sqrt() + 1e-12;
        assert!(z1[6..].iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn layered_round_trip() {
        let a = SvrRegressor::new(6, svr_cfg(3));
        let mut b = SvrRegressor::new(6, svr_cfg(3));
        let mut params = a.export_layer(0);
        params
            .iter_mut()
            .enumerate()
            .for_each(|(i, p)| *p = i as f64);
        b.import_layer(0, &params);
        assert_eq!(b.export_layer(0), params);
    }

    #[test]
    #[should_panic(expected = "single layer")]
    fn layer_index_bounds_checked() {
        let svr = SvrRegressor::new(4, svr_cfg(0));
        let _ = svr.export_layer(1);
    }
}
