//! Summary statistics and cumulative-distribution helpers.
//!
//! The paper's motivating analysis (Figures 2–5) is a set of cumulative
//! distributions and percentile summaries over overlap measurements. This
//! module provides the small numeric toolkit the analyzer and the figure
//! harness share: percentiles, means, CDF sampling at chosen support points,
//! and a log-spaced axis helper matching the paper's log-x plots.

/// An empirical distribution over `f64` samples.
///
/// Construction sorts once; all queries are then O(log n) or O(1).
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    sorted: Vec<f64>,
}

impl Distribution {
    /// Builds a distribution from raw samples. Non-finite samples are
    /// dropped (they arise from degenerate cost ratios like 0/0).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| x.is_finite());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Distribution { sorted: samples }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// The `p`-th percentile (0 ≤ p ≤ 100) using nearest-rank on the sorted
    /// samples; `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * (self.sorted.len() as f64 - 1.0)).round() as usize;
        Some(self.sorted[rank])
    }

    /// Median (50th percentile).
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Empirical CDF value: fraction of samples ≤ `x`.
    pub fn cdf_at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Complementary CDF: fraction of samples ≥ `x` (the paper's Figure 5a
    /// style "fraction of views with frequency at least f").
    pub fn ccdf_at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&s| s < x);
        (self.sorted.len() - idx) as f64 / self.sorted.len() as f64
    }

    /// Samples the CDF at each support point, producing `(x, F(x))` pairs
    /// ready for plotting or TSV output.
    pub fn cdf_series(&self, support: &[f64]) -> Vec<(f64, f64)> {
        support.iter().map(|&x| (x, self.cdf_at(x))).collect()
    }

    /// A one-line summary matching the percentile style the paper reports
    /// (e.g. "median 2.96, 75th percentile 3.82, 95th percentile 7.1").
    pub fn summary(&self) -> DistSummary {
        DistSummary {
            count: self.len(),
            mean: self.mean().unwrap_or(0.0),
            min: self.min().unwrap_or(0.0),
            p50: self.percentile(50.0).unwrap_or(0.0),
            p75: self.percentile(75.0).unwrap_or(0.0),
            p95: self.percentile(95.0).unwrap_or(0.0),
            p99: self.percentile(99.0).unwrap_or(0.0),
            max: self.max().unwrap_or(0.0),
        }
    }
}

/// Percentile summary of a [`Distribution`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistSummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl std::fmt::Display for DistSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.2} min={:.2} p50={:.2} p75={:.2} p95={:.2} p99={:.2} max={:.2}",
            self.count, self.mean, self.min, self.p50, self.p75, self.p95, self.p99, self.max
        )
    }
}

/// `n` log-spaced points from `lo` to `hi` inclusive (both must be > 0).
/// Matches the log-x axes of Figures 3–5.
pub fn log_space(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(
        lo > 0.0 && hi > lo && n >= 2,
        "log_space needs 0 < lo < hi, n >= 2"
    );
    let (llo, lhi) = (lo.ln(), hi.ln());
    (0..n)
        .map(|i| (llo + (lhi - llo) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(v: &[f64]) -> Distribution {
        Distribution::new(v.to_vec())
    }

    #[test]
    fn basic_summary() {
        let d = dist(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(d.len(), 5);
        assert_eq!(d.min(), Some(1.0));
        assert_eq!(d.max(), Some(5.0));
        assert_eq!(d.mean(), Some(3.0));
        assert_eq!(d.median(), Some(3.0));
    }

    #[test]
    fn percentile_nearest_rank() {
        let d = dist(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(d.percentile(0.0), Some(10.0));
        assert_eq!(d.percentile(100.0), Some(40.0));
        assert_eq!(d.percentile(50.0), Some(30.0)); // rank round(1.5)=2
        assert_eq!(d.percentile(200.0), Some(40.0)); // clamped
    }

    #[test]
    fn cdf_and_ccdf() {
        let d = dist(&[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(d.cdf_at(0.5), 0.0);
        assert_eq!(d.cdf_at(2.0), 0.75);
        assert_eq!(d.cdf_at(10.0), 1.0);
        assert_eq!(d.ccdf_at(2.0), 0.75);
        assert_eq!(d.ccdf_at(3.1), 0.0);
        // CDF + strict-below CCDF partition the samples.
        for x in [0.0, 1.0, 2.0, 2.5, 3.0, 4.0] {
            let below = d.cdf_at(x);
            let at_or_above = d.ccdf_at(x + 1e-9);
            assert!((below + at_or_above - 1.0).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn empty_and_nonfinite() {
        let d = dist(&[]);
        assert!(d.is_empty());
        assert_eq!(d.mean(), None);
        assert_eq!(d.cdf_at(1.0), 0.0);
        let d = dist(&[f64::NAN, 1.0, f64::INFINITY]);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn series_matches_pointwise() {
        let d = dist(&[1.0, 10.0, 100.0]);
        let xs = log_space(1.0, 100.0, 3);
        let series = d.cdf_series(&xs);
        assert_eq!(series.len(), 3);
        for (x, y) in series {
            assert_eq!(y, d.cdf_at(x));
        }
    }

    #[test]
    fn log_space_endpoints_and_monotone() {
        let xs = log_space(1.0, 1000.0, 4);
        assert!((xs[0] - 1.0).abs() < 1e-9);
        assert!((xs[3] - 1000.0).abs() < 1e-6);
        assert!((xs[1] - 10.0).abs() < 1e-6);
        assert!(xs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic]
    fn log_space_rejects_nonpositive() {
        log_space(0.0, 1.0, 3);
    }

    #[test]
    fn summary_display() {
        let s = dist(&[1.0, 2.0, 3.0]).summary();
        let line = s.to_string();
        assert!(line.contains("n=3"));
        assert!(line.contains("mean=2.00"));
    }
}
