//! Reception-overhead statistics: the machinery behind Figure 2 of the paper
//! ("Percent Unfinished vs. Length Overhead", 10 000 runs) and the summary
//! numbers quoted in Section 5.2 (average / maximum / standard deviation of
//! the overhead for Tornado A and Tornado B).

/// Summary statistics over a set of reception-overhead samples.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadStats {
    /// Individual overhead samples, sorted ascending.
    samples: Vec<f64>,
}

impl OverheadStats {
    /// Build statistics from raw overhead samples (each sample is the ε at
    /// which one decode trial completed).
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("overhead samples are finite"));
        OverheadStats { samples }
    }

    /// Number of trials.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean overhead.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Maximum overhead observed.
    pub fn max(&self) -> f64 {
        self.samples.last().copied().unwrap_or(0.0)
    }

    /// Minimum overhead observed.
    pub fn min(&self) -> f64 {
        self.samples.first().copied().unwrap_or(0.0)
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .samples
            .iter()
            .map(|s| (s - mean) * (s - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.samples.len() as f64 * q).ceil() as usize)
            .saturating_sub(1)
            .min(self.samples.len() - 1);
        self.samples[rank]
    }

    /// Fraction of trials still unfinished after receiving `(1 + overhead)·k`
    /// packets — the y-axis of Figure 2.
    fn fraction_unfinished_at(&self, overhead: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        // A trial is unfinished at `overhead` if it needed strictly more.
        let finished = self.samples.partition_point(|&s| s <= overhead);
        (self.samples.len() - finished) as f64 / self.samples.len() as f64
    }

    /// The "percent unfinished vs. length overhead" curve of Figure 2,
    /// evaluated on a regular grid from 0 to `max_overhead` with `points`
    /// samples.  Returns `(overhead, percent_unfinished)` pairs.
    pub fn unfinished_curve(&self, max_overhead: f64, points: usize) -> Vec<(f64, f64)> {
        let points = points.max(2);
        (0..points)
            .map(|i| {
                let x = max_overhead * i as f64 / (points - 1) as f64;
                (x, 100.0 * self.fraction_unfinished_at(x))
            })
            .collect()
    }

    /// Borrow the sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> OverheadStats {
        OverheadStats::from_samples(vec![0.05, 0.03, 0.07, 0.04, 0.06])
    }

    #[test]
    fn basic_moments() {
        let s = stats();
        assert_eq!(s.len(), 5);
        assert!((s.mean() - 0.05).abs() < 1e-12);
        assert_eq!(s.max(), 0.07);
        assert_eq!(s.min(), 0.03);
        // Sample variance of {0.03, 0.04, 0.05, 0.06, 0.07} is 2.5e-4.
        let expected_sd = 2.5e-4f64.sqrt();
        assert!((s.std_dev() - expected_sd).abs() < 1e-9, "{}", s.std_dev());
    }

    #[test]
    fn unfinished_fraction_is_a_step_function() {
        let s = stats();
        assert_eq!(s.fraction_unfinished_at(0.0), 1.0);
        assert_eq!(s.fraction_unfinished_at(0.05), 0.4);
        assert_eq!(s.fraction_unfinished_at(0.07), 0.0);
        assert_eq!(s.fraction_unfinished_at(1.0), 0.0);
    }

    #[test]
    fn quantiles_and_completion_percent() {
        let s = stats();
        assert_eq!(s.quantile(0.0), 0.03);
        assert_eq!(s.quantile(1.0), 0.07);
        assert_eq!(s.quantile(0.6), 0.05);
    }

    #[test]
    fn unfinished_curve_is_monotone_nonincreasing() {
        let s = stats();
        let curve = s.unfinished_curve(0.1, 21);
        assert_eq!(curve.len(), 21);
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
        assert_eq!(curve[0].1, 100.0);
        assert_eq!(curve.last().unwrap().1, 0.0);
    }

    #[test]
    fn empty_and_singleton_are_safe() {
        let empty = OverheadStats::from_samples(vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.std_dev(), 0.0);
        assert_eq!(empty.quantile(0.5), 0.0);
        let one = OverheadStats::from_samples(vec![0.042]);
        assert_eq!(one.mean(), 0.042);
        assert_eq!(one.std_dev(), 0.0);
    }
}
