//! Forecast quality metrics.
//!
//! The paper's headline metric (§4.1) is `Ac_n = 1 - |V_n - RV_n| / RV_n`
//! — per-prediction relative accuracy. We clamp to `[0, 1]` and skip
//! near-zero ground truth (off minutes), where the ratio is undefined;
//! the paper's device-mode framing implies the same, since "off" draws
//! exactly zero watts.

/// Minimum ground-truth watts for a sample to enter the paper-accuracy
/// average.
pub const DEFAULT_ACCURACY_FLOOR_WATTS: f64 = 1.0;

/// One sample's paper accuracy: `1 - |pred - real| / real`, clamped to
/// `[0, 1]`. The caller skips samples whose `real` is below its floor.
pub fn sample_accuracy(pred: f64, real: f64) -> f64 {
    (1.0 - (pred - real).abs() / real).clamp(0.0, 1.0)
}

/// Per-sample paper accuracies ([`sample_accuracy`]) of the samples with
/// `real >= floor`.
pub fn paper_accuracies(pred: &[f64], real: &[f64], floor: f64) -> Vec<f64> {
    assert_eq!(pred.len(), real.len(), "paper_accuracies length mismatch");
    assert!(floor > 0.0, "floor must be positive");
    pred.iter()
        .zip(real.iter())
        .filter(|(_, r)| **r >= floor)
        .map(|(p, r)| sample_accuracy(*p, *r))
        .collect()
}

/// Mean paper accuracy (see [`paper_accuracies`]); `None` when no sample
/// clears the floor.
pub fn paper_accuracy(pred: &[f64], real: &[f64], floor: f64) -> Option<f64> {
    let accs = paper_accuracies(pred, real, floor);
    if accs.is_empty() {
        None
    } else {
        Some(accs.iter().sum::<f64>() / accs.len() as f64)
    }
}

/// Mean absolute error.
pub fn mae(pred: &[f64], real: &[f64]) -> f64 {
    assert_eq!(pred.len(), real.len(), "mae length mismatch");
    assert!(!pred.is_empty(), "mae on empty slice");
    pred.iter()
        .zip(real.iter())
        .map(|(p, r)| (p - r).abs())
        .sum::<f64>()
        / pred.len() as f64
}

/// Root mean squared error.
pub fn rmse(pred: &[f64], real: &[f64]) -> f64 {
    assert_eq!(pred.len(), real.len(), "rmse length mismatch");
    assert!(!pred.is_empty(), "rmse on empty slice");
    (pred
        .iter()
        .zip(real.iter())
        .map(|(p, r)| (p - r) * (p - r))
        .sum::<f64>()
        / pred.len() as f64)
        .sqrt()
}

/// Empirical CDF over accuracy values: returns `(accuracy, fraction <=
/// accuracy)` at each of `points` evenly spaced accuracy levels in
/// `[0, 1]` — the form of the paper's Figure 5.
pub fn accuracy_cdf(accuracies: &[f64], points: usize) -> Vec<(f64, f64)> {
    assert!(points >= 2, "need at least 2 CDF points");
    assert!(!accuracies.is_empty(), "accuracy_cdf on empty slice");
    let mut sorted = accuracies.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN accuracies"));
    let n = sorted.len() as f64;
    (0..points)
        .map(|i| {
            let level = i as f64 / (points - 1) as f64;
            let below = sorted.partition_point(|&a| a <= level);
            (level, below as f64 / n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_scores_one() {
        let acc = paper_accuracy(&[5.0, 100.0], &[5.0, 100.0], 1.0).unwrap();
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn relative_error_reduces_accuracy() {
        // 10% relative error => accuracy 0.9.
        let acc = paper_accuracy(&[110.0], &[100.0], 1.0).unwrap();
        assert!((acc - 0.9).abs() < 1e-12);
    }

    #[test]
    fn wild_misses_clamp_to_zero() {
        // Predicting 100W on a 3W standby reading: error ratio >> 1.
        let acc = paper_accuracy(&[100.0], &[3.0], 1.0).unwrap();
        assert_eq!(acc, 0.0);
    }

    #[test]
    fn off_minutes_are_skipped() {
        let accs = paper_accuracies(&[0.0, 50.0], &[0.0, 50.0], 1.0);
        assert_eq!(accs.len(), 1);
        assert!(paper_accuracy(&[1.0], &[0.0], 1.0).is_none());
    }

    #[test]
    fn mae_and_rmse_basics() {
        let p = [1.0, 3.0];
        let r = [0.0, 0.0];
        assert!((mae(&p, &r) - 2.0).abs() < 1e-12);
        assert!((rmse(&p, &r) - (5.0_f64).sqrt()).abs() < 1e-12);
        // RMSE >= MAE always.
        assert!(rmse(&p, &r) >= mae(&p, &r));
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let accs = [0.1, 0.5, 0.5, 0.9, 1.0];
        let cdf = accuracy_cdf(&accs, 11);
        assert_eq!(cdf.len(), 11);
        for w in cdf.windows(2) {
            assert!(w[1].1 >= w[0].1, "CDF must be monotone");
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
        assert_eq!(cdf[0].1, 0.0); // nothing <= 0.0 except exact zeros
    }

    #[test]
    fn cdf_midpoint_counts_correctly() {
        let accs = [0.2, 0.4, 0.6, 0.8];
        let cdf = accuracy_cdf(&accs, 3); // levels 0, 0.5, 1
        assert_eq!(cdf[1].0, 0.5);
        assert_eq!(cdf[1].1, 0.5); // 0.2 and 0.4 are <= 0.5
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = mae(&[1.0], &[1.0, 2.0]);
    }
}
