//! Sample statistics: the guarded percentile and the quartiles the spread
//! report uses.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` of `samples` (via
/// [`adaptive_core::metrics::percentile`]), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it: a p99 needs at least 1,000
/// samples, a p90 at least 100, a median at least 20.
pub fn guarded_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(adaptive_core::metrics::percentile(
        samples.iter().copied(),
        p,
    ))
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spread report reads exactly as the acceptance check computes it.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_sample_yields_no_tail_percentile() {
        assert_eq!(guarded_percentile(&[42.0], 90.0), None);
        assert_eq!(guarded_percentile(&[42.0], 50.0), None);
        assert_eq!(guarded_percentile(&[], 50.0), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(guarded_percentile(&ramp(99), 90.0), None);
        assert_eq!(guarded_percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(guarded_percentile(&ramp(999), 99.0), None);
        assert_eq!(guarded_percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(guarded_percentile(&ramp(20), 50.0), Some(10.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
