//! Property-based tests (proptest) on cross-crate invariants.

use pfdrl::data::{build_windows, Mode};
use pfdrl::env::{classify, reward};
use pfdrl::nn::{average_params, loss, Matrix};
use proptest::prelude::*;

proptest! {
    /// FedAvg of identical snapshots is the identity, for any shape.
    #[test]
    fn average_of_identical_snapshots_is_identity(
        values in prop::collection::vec(-1e6f64..1e6, 1..64),
        copies in 1usize..8,
    ) {
        let snaps: Vec<Vec<f64>> = (0..copies).map(|_| values.clone()).collect();
        let avg = average_params(&snaps);
        for (a, v) in avg.iter().zip(values.iter()) {
            prop_assert!((a - v).abs() <= 1e-9 * v.abs().max(1.0));
        }
    }

    /// The average lies inside the element-wise min/max envelope.
    #[test]
    fn average_stays_in_envelope(
        snaps in prop::collection::vec(
            prop::collection::vec(-1e3f64..1e3, 8),
            1..6,
        ),
    ) {
        let avg = average_params(&snaps);
        for i in 0..8 {
            let lo = snaps.iter().map(|s| s[i]).fold(f64::MAX, f64::min);
            let hi = snaps.iter().map(|s| s[i]).fold(f64::MIN, f64::max);
            prop_assert!(avg[i] >= lo - 1e-9 && avg[i] <= hi + 1e-9);
        }
    }

    /// Table 1 structure: matching the truth is always at least as good
    /// as any mis-match except the standby->off bonus.
    #[test]
    fn reward_prefers_truth_except_standby_off(gt_idx in 0usize..3, a_idx in 0usize..3) {
        let gt = Mode::from_index(gt_idx);
        let a = Mode::from_index(a_idx);
        let r = reward(gt, a);
        prop_assert!((-30.0..=30.0).contains(&r));
        if gt == a {
            prop_assert_eq!(r, 10.0);
        } else if !(gt == Mode::Standby && a == Mode::Off) {
            prop_assert!(r < 0.0);
        }
    }

    /// Classification is scale-consistent: readings within ±9% of a
    /// device's nominal level classify to that level's mode.
    #[test]
    fn classification_tolerates_band_noise(noise in -0.09f64..0.09) {
        let spec = pfdrl::data::DeviceType::GameConsole.nominal_spec();
        prop_assert_eq!(classify(&spec, spec.on_watts * (1.0 + noise)), Mode::On);
        prop_assert_eq!(classify(&spec, spec.standby_watts * (1.0 + noise)), Mode::Standby);
        prop_assert_eq!(classify(&spec, 0.0), Mode::Off);
    }

    /// Windowing: every sample's target equals the trace value at the
    /// position implied by (window, horizon), for arbitrary traces.
    #[test]
    fn window_targets_align_with_trace(
        trace in prop::collection::vec(0.0f64..500.0, 40..200),
        window in 2usize..10,
        horizon in 1usize..10,
    ) {
        prop_assume!(trace.len() > window + horizon);
        let set = build_windows(&trace, 100.0, window, horizon, 0);
        for (i, t) in set.targets.iter().enumerate() {
            let expected = trace[i + window + horizon - 1] / 100.0;
            prop_assert!((t - expected).abs() < 1e-12);
        }
        // And inputs are contiguous slices of the trace.
        for (i, f) in set.inputs.iter().enumerate() {
            for (j, v) in f[..window].iter().enumerate() {
                prop_assert!((v - trace[i + j] / 100.0).abs() < 1e-12);
            }
        }
    }

    /// Huber loss is bounded above by MSE/2 elementwise-summed (it is the
    /// robustified version) and is always non-negative.
    #[test]
    fn huber_below_half_mse(
        pairs in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 1..32),
    ) {
        let (pred, target): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let p = Matrix::row_vector(pred);
        let t = Matrix::row_vector(target);
        let (h, _) = loss::huber(&p, &t, 1.0);
        let (m, _) = loss::mse(&p, &t);
        prop_assert!(h >= 0.0);
        prop_assert!(h <= 0.5 * m + 1e-9);
    }

    /// Matrix multiplication distributes over addition:
    /// (A + B) C = AC + BC, within float tolerance.
    #[test]
    fn matmul_distributes(
        a in prop::collection::vec(-10.0f64..10.0, 12),
        b in prop::collection::vec(-10.0f64..10.0, 12),
        c in prop::collection::vec(-10.0f64..10.0, 20),
    ) {
        let ma = Matrix::from_vec(3, 4, a);
        let mb = Matrix::from_vec(3, 4, b);
        let mc = Matrix::from_vec(4, 5, c);
        let mut sum = ma.clone();
        sum.add_assign(&mb);
        let left = sum.matmul(&mc);
        let mut right = ma.matmul(&mc);
        right.add_assign(&mb.matmul(&mc));
        prop_assert!(left.max_abs_diff(&right) < 1e-9);
    }
}
