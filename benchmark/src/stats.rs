//! Order statistics over timing samples.

/// A tail percentile must leave at least this many samples beyond it,
/// or it says more about one outlier than about the distribution.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the two middle samples when the count is even).
/// `None` on an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank `p`-th percentile: the smallest sample with at least
/// `p`% of all samples at or below it. Refuses (`None`) when fewer than
/// [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    (n - rank >= MIN_BEYOND).then(|| s[rank - 1])
}

/// First and third quartiles by Python's `statistics.quantiles(data,
/// n=4)` (the default "exclusive" method), so this benchmark and the
/// tools that judge it read the same spread. `None` below 2 samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(samples);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_picks_a_real_sample() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        assert_eq!(percentile(&s, 89.5), Some(90.0));
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 leaves exactly 10 beyond; p91 leaves 9.
        assert!(percentile(&s, 90.0).is_some());
        assert_eq!(percentile(&s, 91.0), None);
        assert_eq!(percentile(&s, 99.0), None);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), Some(990.0));
        assert_eq!(percentile(&s[..9], 0.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), Some((2.75, 8.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
