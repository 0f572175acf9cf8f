//! Order statistics the reported numbers rest on. Everything here is pure
//! so the unit tests can pin the exact selection rules.

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample.
/// Returns `NaN` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median with the two middle values averaged for even counts.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest whole percentile (at most 99) that still has at least
/// `beyond` samples strictly above its nearest-rank position, or `None`
/// when even the median does not. A tail number with fewer samples beyond
/// it is one or two outliers, not a percentile.
pub fn highest_supported_percentile(n: usize, beyond: usize) -> Option<u32> {
    (50..=99u32).rev().find(|p| {
        let rank = ((*p as f64 / 100.0) * n as f64).ceil().max(1.0) as usize;
        n >= rank + beyond
    })
}

/// `(max - min) / median`: the run-to-run spread the `repeat` self-check
/// and the README table report.
pub fn spread(samples: &[f64]) -> f64 {
    let max = samples.iter().copied().fold(f64::MIN, f64::max);
    let min = samples.iter().copied().fold(f64::MAX, f64::min);
    let med = median(samples);
    if med == 0.0 {
        return 0.0;
    }
    (max - min) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        // Unsorted input and a count that does not divide evenly.
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 50.0), 5.0);
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 95.0), 9.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 200 samples: p95 sits at rank 190, ten beyond it.
        assert_eq!(highest_supported_percentile(200, 10), Some(95));
        // 1000 samples support p99 exactly (rank 990, ten beyond).
        assert_eq!(highest_supported_percentile(1000, 10), Some(99));
        assert_eq!(highest_supported_percentile(999, 10), Some(98));
        // 20 samples: only the median has ten beyond it.
        assert_eq!(highest_supported_percentile(20, 10), Some(50));
        assert_eq!(highest_supported_percentile(19, 10), None);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0]), 0.0);
    }
}
