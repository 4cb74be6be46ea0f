//! Property tests pinning every backend's `predict_into` to the
//! allocating `predict` oracle — *bitwise*, via `f64::to_bits`, not
//! within a tolerance. `predict_into` reads rows from one flat matrix
//! and reuses caller-owned workspace buffers; it claims the exact same
//! floating-point operation order per output element, so any
//! reassociation shows up here as a flipped bit.
//!
//! Same NaN carve-out as `pfdrl-nn`'s kernel props: when both sides
//! produce a NaN at the same element the payload bits are not compared
//! (payload propagation is a codegen artifact). NaN *placement* is
//! exact, as are signed zeros, infinities and every finite bit pattern.

use pfdrl_forecast::{
    BpNetwork, Forecaster, LstmForecaster, PredictWorkspace, SvrConfig, SvrRegressor, TrainConfig,
};
use pfdrl_nn::Matrix;
use proptest::prelude::*;

/// splitmix64: derives arbitrarily many deterministic values from one
/// sampled seed (the vendored proptest shim only supports simple
/// range/tuple strategies, so all structure is derived here).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Mostly well-scaled finite values with a sprinkle of exact zeros
    /// (zero-skip branches), -0.0, NaN, infinities and subnormals.
    fn value(&mut self) -> f64 {
        match self.below(16) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => f64::MIN_POSITIVE / 2.0, // subnormal
            _ => {
                let u = self.next();
                (u as f64 / u64::MAX as f64) * 16.0 - 8.0
            }
        }
    }

    fn finite(&mut self) -> f64 {
        (self.next() as f64 / u64::MAX as f64) * 2.0 - 1.0
    }

    /// A batch of feature rows plus the same data as one flat matrix.
    fn batch(&mut self, rows: usize, dim: usize) -> (Vec<Vec<f64>>, Matrix) {
        let data: Vec<Vec<f64>> = (0..rows)
            .map(|_| (0..dim).map(|_| self.value()).collect())
            .collect();
        let mut m = Matrix::zeros(rows, dim);
        for (r, row) in data.iter().enumerate() {
            m.row_mut(r).copy_from_slice(row);
        }
        (data, m)
    }
}

fn bits_match(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

/// Randomizes a forecaster's weights so the oracle comparison is not
/// against a degenerate initialization (SVR starts at all-zero weights).
fn scramble_params(model: &mut dyn Forecaster, g: &mut Gen) {
    for layer in 0..model.layer_count() {
        let vals: Vec<f64> = (0..model.layer_param_count(layer))
            .map(|_| g.finite())
            .collect();
        model.import_layer(layer, &vals);
    }
}

fn check_backend(model: &dyn Forecaster, g: &mut Gen, ws: &mut PredictWorkspace, dim: usize) {
    let rows = 1 + g.below(24) as usize;
    let (data, flat) = g.batch(rows, dim);
    let want = model.predict(&data);
    let mut got = vec![f64::NAN; 3]; // stale contents must be cleared
    model.predict_into(&flat, ws, &mut got);
    assert_eq!(want.len(), got.len(), "{}: length", model.method_name());
    for (i, (&x, &y)) in want.iter().zip(&got).enumerate() {
        assert!(
            bits_match(x, y),
            "{}: element {i} differs: {x:?} ({:#018x}) vs {y:?} ({:#018x})",
            model.method_name(),
            x.to_bits(),
            y.to_bits()
        );
    }
}

proptest! {
    /// All four backends, randomized windows and weights, one shared
    /// workspace reused across backends and batch sizes (exercising the
    /// in-place resize paths).
    #[test]
    fn predict_into_matches_predict_bitwise(
        seed in 0u64..u64::MAX,
        window in 1usize..9,
    ) {
        let g = &mut Gen(seed);
        let dim = window + 2;
        let cfg = TrainConfig::with_seed(seed % 1024);
        let mut ws = PredictWorkspace::default();

        // LR: the BP network with no hidden layer.
        let mut lr = BpNetwork::with_hidden(dim, &[], cfg.clone());
        scramble_params(&mut lr, g);
        check_backend(&lr, g, &mut ws, dim);

        let mut bp = BpNetwork::new(dim, cfg.clone());
        scramble_params(&mut bp, g);
        check_backend(&bp, g, &mut ws, dim);

        let mut lstm = LstmForecaster::new(dim, cfg.clone());
        scramble_params(&mut lstm, g);
        check_backend(&lstm, g, &mut ws, dim);

        let mut svr = SvrRegressor::new(dim, SvrConfig {
            train: cfg,
            ..Default::default()
        });
        scramble_params(&mut svr, g);
        check_backend(&svr, g, &mut ws, dim);
    }

    /// The trait's default implementation (the allocating fallback) and
    /// empty batches behave identically across backends too.
    #[test]
    fn predict_into_empty_batch_clears_out(seed in 0u64..u64::MAX) {
        let g = &mut Gen(seed);
        let dim = 6;
        let mut ws = PredictWorkspace::default();
        let mut out = vec![1.0, 2.0];
        let models: Vec<Box<dyn Forecaster>> = vec![
            Box::new(BpNetwork::with_hidden(dim, &[], TrainConfig::default())),
            Box::new(BpNetwork::new(dim, TrainConfig::default())),
            Box::new(LstmForecaster::new(dim, TrainConfig::default())),
            Box::new(SvrRegressor::new(dim, SvrConfig::default())),
        ];
        for model in &models {
            model.predict_into(&Matrix::zeros(0, dim), &mut ws, &mut out);
            prop_assert!(out.is_empty(), "{}: not cleared", model.method_name());
            out.push(g.finite()); // stale again for the next backend
        }
    }
}
