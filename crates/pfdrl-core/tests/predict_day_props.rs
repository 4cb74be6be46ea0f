//! Property tests pinning the streaming day featurizer
//! (`predict_day_into`) to the allocating `predict_day` oracle —
//! *bitwise*, via `f64::to_bits`, across randomized windows, horizons,
//! target transforms, scales, traces and forecaster backends.
//!
//! `predict_day_into` encodes the shared window span once and hands the
//! forecaster one flat matrix; the oracle encodes every window
//! independently and goes through `Vec<Vec<f64>>`. Any drift in row
//! contents, feature order, encode/decode placement or clamping shows
//! up here as a flipped bit.

use pfdrl_core::ems::{predict_day, predict_day_into, PredictDayWorkspace};
use pfdrl_core::SimConfig;
use pfdrl_data::dataset::TargetTransform;
use pfdrl_data::{DayTrace, Mode, MINUTES_PER_DAY};
use pfdrl_forecast::{BpNetwork, Forecaster, LstmForecaster, SvrConfig, SvrRegressor, TrainConfig};
use proptest::prelude::*;

/// splitmix64, same shape as the `pfdrl-forecast` predict props: one
/// sampled seed drives all derived structure.
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

    fn unit(&mut self) -> f64 {
        self.next() as f64 / u64::MAX as f64
    }

    /// Plausible watt readings with a sprinkle of exact zeros (the
    /// standby floor) so zero-skip branches in the kernels get hit.
    fn day(&mut self) -> DayTrace {
        let watts = (0..MINUTES_PER_DAY)
            .map(|_| {
                if self.below(12) == 0 {
                    0.0
                } else {
                    self.unit() * 220.0
                }
            })
            .collect();
        DayTrace {
            modes: vec![Mode::Standby; MINUTES_PER_DAY],
            watts,
        }
    }
}

fn bits_match(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

/// Randomizes a forecaster's weights so the comparison is not against a
/// degenerate all-zero initialization.
fn scramble_params(model: &mut dyn Forecaster, g: &mut Gen) {
    for layer in 0..model.layer_count() {
        let vals: Vec<f64> = (0..model.layer_param_count(layer))
            .map(|_| g.unit() * 2.0 - 1.0)
            .collect();
        model.import_layer(layer, &vals);
    }
}

fn build_backend(which: u64, dim: usize, g: &mut Gen) -> Box<dyn Forecaster> {
    let cfg = TrainConfig::with_seed(g.below(1024));
    let mut model: Box<dyn Forecaster> = match which {
        // LR: the BP network with no hidden layer.
        0 => Box::new(BpNetwork::with_hidden(dim, &[], cfg)),
        1 => Box::new(BpNetwork::new(dim, cfg)),
        2 => Box::new(SvrRegressor::new(
            dim,
            SvrConfig {
                train: cfg,
                ..Default::default()
            },
        )),
        // Small hidden width keeps 96 full-day unrolls cheap; the
        // inference path is width-agnostic.
        _ => Box::new(LstmForecaster::with_hidden(dim, 8, cfg)),
    };
    scramble_params(model.as_mut(), g);
    model
}

proptest! {
    #[test]
    fn predict_day_into_matches_oracle_bitwise(
        seed in 0u64..u64::MAX,
        window in 1usize..24,
        horizon in 1usize..46,
    ) {
        let g = &mut Gen(seed);
        let transform = if g.below(2) == 0 {
            TargetTransform::Linear
        } else {
            TargetTransform::Log { k: 1.0 + g.unit() * 200.0 }
        };
        let cfg = SimConfig {
            window,
            horizon,
            transform,
            ..SimConfig::default()
        };
        let scale = 10.0 + g.unit() * 300.0;
        let prev = g.day();
        let today = g.day();
        let model = build_backend(g.below(4), window + 2, g);

        let want = predict_day(&cfg, model.as_ref(), &prev, &today, scale);
        let mut ws = PredictDayWorkspace::default();
        let mut got = vec![f64::NAN; 3]; // stale contents must be cleared
        // Run twice through the same workspace: the second pass reuses
        // every buffer at full size (the steady-state path).
        for _ in 0..2 {
            predict_day_into(&cfg, model.as_ref(), &prev, &today, scale, &mut ws, &mut got);
        }

        prop_assert_eq!(want.len(), got.len());
        prop_assert_eq!(got.len(), MINUTES_PER_DAY);
        for (i, (&x, &y)) in want.iter().zip(&got).enumerate() {
            prop_assert!(
                bits_match(x, y),
                "{}: minute {} differs: {:?} ({:#018x}) vs {:?} ({:#018x})",
                model.method_name(), i, x, x.to_bits(), y, y.to_bits()
            );
        }
    }
}
