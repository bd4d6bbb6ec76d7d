//! Order statistics used by the harness: medians, quartiles and the tail
//! percentile a sample can support.

/// Sorts `values` ascending (NaN-free by construction: every value is a
/// measured time or a count).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
}

/// First quartile, median and third quartile, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what the
/// driver applies to this benchmark's output. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The percentiles the harness is willing to report, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`LADDER`] that still has at least ten of `n`
/// samples beyond it — below that a tail percentile is one outlier, not a
/// measurement. `None` when even the median lacks the support.
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|p| samples_beyond(n, *p) >= 10)
}

/// How many of `n` sorted samples lie strictly beyond percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p) + 1)
}

/// Index of percentile `p` in a sorted sample of `n` (nearest rank).
fn rank(n: usize, p: f64) -> usize {
    ((n as f64 * p / 100.0).ceil() as usize).clamp(1, n.max(1)) - 1
}

/// Percentile `p` (nearest rank) of an ascending-sorted, non-empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_picks_the_highest_rank_with_ten_samples_beyond() {
        assert_eq!(highest_percentile(5), None);
        assert_eq!(highest_percentile(21), Some(50.0));
        assert_eq!(highest_percentile(200), Some(90.0));
        // p99 of 1000 samples is index 989: exactly ten beyond it.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(300_000), Some(99.99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }
}
