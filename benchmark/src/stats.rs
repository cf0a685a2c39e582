//! Order statistics for the reported metrics: the median, and the rule that
//! picks which tail percentile a sample can support.

/// Fewest samples that must lie beyond a reported tail percentile.
const TAIL_SAMPLES: usize = 10;

/// The value at quantile `q` (0 ≤ q ≤ 1) of `sorted` (ascending), by the
/// nearest-rank rule; `None` for an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an unsorted sample (mean of the two middle values for an even
/// count); `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The tail quantile a sample of `n` supports: 0.95 when at least
/// [`TAIL_SAMPLES`] samples lie beyond it, otherwise the highest quantile
/// that still has that many beyond it, and never below the median.
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    let supported = 1.0 - TAIL_SAMPLES as f64 / n as f64;
    supported.clamp(0.5, 0.95)
}

/// Median and supported tail of a latency sample: `(p50, tail, tail quantile)`.
pub fn latency_summary(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let q = tail_quantile(v.len());
    Some((quantile(&v, 0.5)?, quantile(&v, q)?, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.95), Some(95.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
    }

    #[test]
    fn the_tail_needs_ten_samples_beyond_it() {
        // 200 samples: ten lie beyond p95, so p95 stands.
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(5000), 0.95);
        // 100 samples: only five lie beyond p95; p90 is the highest
        // percentile with ten beyond it.
        assert!((tail_quantile(100) - 0.90).abs() < 1e-12);
        assert!((tail_quantile(40) - 0.75).abs() < 1e-12);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail_quantile(20), 0.5);
        assert_eq!(tail_quantile(3), 0.5);
        assert_eq!(tail_quantile(0), 0.5);
    }

    #[test]
    fn latency_summary_reports_the_supported_tail() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (p50, tail, q) = latency_summary(&samples).unwrap();
        assert_eq!(p50, 50.0);
        assert_eq!(tail, 90.0);
        assert!((q - 0.90).abs() < 1e-12);
        assert!(latency_summary(&[]).is_none());
    }
}
