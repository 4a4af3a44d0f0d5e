//! Order statistics for timing samples.
//!
//! A timing is reported as a median plus the highest percentile that still
//! has at least [`MIN_BEYOND`] samples beyond it: with fewer, the estimate
//! is one or two outliers and moves by tens of percent between identical
//! runs.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder [`tail`] climbs.
const LADDER: [f64; 5] = [0.50, 0.90, 0.95, 0.99, 0.999];

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q` of already sorted samples (the method
/// Python's `statistics.quantiles(.., method="inclusive")` uses).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Quantile `q` in `[0, 1]` of `samples`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(samples), q)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The centre of a handful of visits: their mean without the smallest and
/// the largest one (the median below four). A workload's frame time on the
/// two-core box has sticky modes ~20 % apart; the median of eight visits
/// flips between them, the trimmed mean moves with their mix and still
/// shrugs off one disturbed visit.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    if values.len() < 4 {
        return median(values);
    }
    let kept = &sorted(values)[1..values.len() - 1];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Distance between the first and the third quartile of `values` as a share
/// of their median, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives: the statistic the benchmark
/// contract judges a metric's steadiness by. `None` below four values.
pub fn spread(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    if n < 4 {
        return None;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / quantile_sorted(&s, 0.5))
}

/// Whether quantile `q` of `n` samples has at least [`MIN_BEYOND`] samples
/// strictly beyond it.
pub fn supported(n: usize, q: f64) -> bool {
    // The epsilon absorbs `1.0 - 0.9 = 0.0999..8`: 100 samples do have ten
    // beyond p90.
    (n as f64 * (1.0 - q) + 1e-9).floor() as usize >= MIN_BEYOND
}

/// Quantile `q` when it is [`supported`], otherwise the highest rung of the
/// ladder below it that is (the median when none is). Returns the quantile
/// actually used with its value, so a caller can say which it got.
pub fn tail(samples: &[f64], q: f64) -> (f64, f64) {
    let s = sorted(samples);
    let used = if supported(s.len(), q) {
        q
    } else {
        LADDER
            .iter()
            .copied()
            .filter(|&rung| rung < q && supported(s.len(), rung))
            .fold(0.5, f64::max)
    };
    (used, quantile_sorted(&s, used))
}

/// Largest value ÷ mean value; 1.0 for perfectly even parts.
pub fn imbalance(parts: &[f64]) -> f64 {
    let mean = parts.iter().sum::<f64>() / parts.len() as f64;
    let max = parts.iter().copied().fold(f64::MIN, f64::max);
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let ramp: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&ramp, 0.95), 95.0);
        assert_eq!(quantile(&ramp, 0.0), 0.0);
        assert_eq!(quantile(&ramp, 1.0), 100.0);
    }

    #[test]
    fn trimmed_mean_drops_one_value_at_each_end() {
        assert_eq!(trimmed_mean(&[9.0, 2.0, 1.0, 3.0, 2.0, 100.0]), 4.0);
        assert_eq!(trimmed_mean(&[2.0, 2.0, 2.5, 2.5]), 2.25);
        // Too few to trim: the median.
        assert_eq!(trimmed_mean(&[1.0, 5.0, 2.0]), 2.0);
        assert_eq!(trimmed_mean(&[4.0]), 4.0);
    }

    #[test]
    fn spread_is_the_contracts_quartile_distance() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(spread(&[3.0, 1.0, 5.0, 2.0, 4.0]), Some(1.0));
        // statistics.quantiles([10, 11, 12, 13, 14, 15, 16, 17, 18, 19], n=4)
        // == [11.75, 14.5, 17.25]
        let ten: Vec<f64> = (10..20).map(f64::from).collect();
        assert_eq!(spread(&ten), Some(5.5 / 14.5));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(spread(&[1.0, 2.0, 4.0, 8.0]), Some(5.75 / 3.0));
        assert_eq!(spread(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p95 leaves 5 % of the samples beyond it: 200 samples are the
        // fewest with ten there.
        assert!(supported(200, 0.95));
        assert!(!supported(199, 0.95));
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(supported(100, 0.9));
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
    }

    #[test]
    fn tail_falls_back_down_the_ladder() {
        let ramp = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&ramp(400), 0.95).0, 0.95);
        // 150 samples: p95 has 7 beyond, p90 has 15.
        assert_eq!(tail(&ramp(150), 0.95).0, 0.90);
        // 60 samples: only the median is supported.
        assert_eq!(tail(&ramp(60), 0.95).0, 0.50);
        // Too few for anything: still the median, never a panic.
        let (q, v) = tail(&ramp(5), 0.95);
        assert_eq!((q, v), (0.5, 2.0));
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        assert_eq!(imbalance(&[1.0, 1.0, 1.0, 1.0]), 1.0);
        assert_eq!(imbalance(&[1.0, 3.0]), 1.5);
        assert_eq!(imbalance(&[0.0, 0.0]), 1.0);
    }
}
