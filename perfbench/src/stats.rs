//! Order statistics for latency samples and run-to-run spread.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the value is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`, or `None` when
/// empty. The input need not be sorted.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank percentile
/// `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether percentile `p` of `n` samples may be reported: the median always
/// may (given a sample), a tail only with [`MIN_BEYOND`] samples beyond it.
pub fn reportable(n: usize, p: f64) -> bool {
    n > 0 && (p <= 50.0 || beyond(n, p) >= MIN_BEYOND)
}

/// The fewest samples at which tail percentile `p` becomes reportable.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| reportable(n, p))
        .expect("every p < 100 is reachable")
}

/// The median (nearest rank), or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// First, second and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads computed here match the ones the benchmark's users compute.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// The distance between the first and third quartile as a share of the
/// median quartile: the run-to-run spread a metric's bound is judged by.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 99.0), Some(99.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Unsorted input is sorted first.
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn ten_beyond_rule_gates_tails() {
        assert_eq!(beyond(100, 90.0), 10);
        assert!(reportable(100, 90.0));
        assert!(!reportable(99, 90.0));
        assert!(!reportable(999, 99.0));
        assert!(reportable(1000, 99.0));
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(99.0), 1000);
        // The median needs one sample, not ten beyond it.
        assert!(reportable(1, 50.0));
        assert!(!reportable(0, 50.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // Expected values from Python 3.11 `statistics.quantiles(v, n=4)`.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(
            quartiles(&[3.5, 1.25, 9.0, 4.75, 2.0]),
            Some([1.625, 3.5, 6.875])
        );
        assert_eq!(quartiles(&[5.0, 1.0]), Some([0.0, 3.0, 6.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[2.0; 10]), Some(0.0));
    }
}
