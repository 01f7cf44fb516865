//! Order statistics for the benchmark's timing samples.
//!
//! A percentile is only as good as the samples beyond it: the p99 of 200
//! samples is decided by two of them. [`percentile`] therefore refuses any
//! percentile with fewer than [`MIN_BEYOND`] samples beyond it, and
//! [`tail`] falls back to the highest percentile the sample supports and
//! says which one it used.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile could not be computed.
#[derive(Debug, PartialEq)]
pub enum PercentileError {
    /// `p` outside `(0, 100)`.
    OutOfRange,
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the percentile.
    TooFewSamples {
        /// Samples offered.
        have: usize,
        /// Samples needed for this percentile.
        need: usize,
    },
}

/// Samples needed before percentile `p` has [`MIN_BEYOND`] samples beyond
/// it on its thinner side.
pub fn samples_needed(p: f64) -> usize {
    let thin = (p.min(100.0 - p) / 100.0).max(f64::MIN_POSITIVE);
    (MIN_BEYOND as f64 / thin).ceil() as usize
}

/// The `p`-th percentile (nearest-rank) of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, PercentileError> {
    if !(p > 0.0 && p < 100.0) {
        return Err(PercentileError::OutOfRange);
    }
    let need = samples_needed(p);
    if sorted.len() < need {
        return Err(PercentileError::TooFewSamples {
            have: sorted.len(),
            need,
        });
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Ok(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest percentile in `(50, want]` the sample supports, with its
/// value: `want` itself when enough samples lie beyond it, else the one
/// that leaves exactly [`MIN_BEYOND`] beyond. `None` below 20 samples.
pub fn tail(sorted: &[f64], want: f64) -> Option<(f64, f64)> {
    if let Ok(v) = percentile(sorted, want) {
        return Some((want, v));
    }
    if sorted.len() < 2 * MIN_BEYOND {
        return None;
    }
    let p = 100.0 * (sorted.len() - MIN_BEYOND) as f64 / sorted.len() as f64;
    Some((p, sorted[sorted.len() - MIN_BEYOND - 1]))
}

/// Sorts a sample ascending (`total_cmp`, so no NaN surprises).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample (mean of the middle pair when even);
/// `0.0` when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Plain median/percentile for *per-layer* numbers, where a thin sample is
/// reported as it is rather than refused; `0.0` when empty.
pub fn loose_percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A bounded uniform sample of a stream (Vitter's algorithm R), so that
/// what the benchmark keeps in memory does not grow with the number of
/// operations a run completes — `peak_rss_mb` must not depend on speed.
#[derive(Clone, Debug)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    rng: u64,
    kept: Vec<f64>,
}

impl Reservoir {
    /// Samples kept by the benchmark's latency reservoirs: p99 still has a
    /// thousand samples beyond it.
    pub const DEFAULT_CAP: usize = 100_000;

    /// A reservoir keeping at most `cap` values.
    pub fn new(cap: usize) -> Reservoir {
        Reservoir {
            cap: cap.max(1),
            seen: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
            kept: Vec::new(),
        }
    }

    /// Offers one value.
    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.kept.len() < self.cap {
            self.kept.push(v);
            return;
        }
        // xorshift64*: the choice of victims needs no better.
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        let slot = self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d) % self.seen;
        if (slot as usize) < self.cap {
            self.kept[slot as usize] = v;
        }
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept values, ascending.
    pub fn sorted(&self) -> Vec<f64> {
        sorted(self.kept.clone())
    }
}

impl Default for Reservoir {
    fn default() -> Reservoir {
        Reservoir::new(Reservoir::DEFAULT_CAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn refuses_a_percentile_without_ten_samples_beyond_it() {
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(samples_needed(50.0), 20);
        assert_eq!(
            percentile(&ramp(999), 99.0),
            Err(PercentileError::TooFewSamples {
                have: 999,
                need: 1000
            })
        );
        assert_eq!(percentile(&ramp(1000), 99.0), Ok(990.0));
        assert!(percentile(&ramp(19), 50.0).is_err());
        assert_eq!(percentile(&ramp(20), 50.0), Ok(10.0));
        assert_eq!(
            percentile(&ramp(20), 100.0),
            Err(PercentileError::OutOfRange)
        );
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        assert_eq!(tail(&ramp(2000), 99.0), Some((99.0, 1980.0)));
        // 200 samples: p95 leaves exactly ten beyond it.
        let (p, v) = tail(&ramp(200), 99.0).unwrap();
        assert!((p - 95.0).abs() < 1e-9);
        assert_eq!(v, 190.0);
        assert_eq!(tail(&ramp(19), 99.0), None);
    }

    #[test]
    fn reservoir_is_bounded_and_roughly_uniform() {
        let mut r = Reservoir::new(1_000);
        for i in 0..100_000 {
            r.push(i as f64);
        }
        assert_eq!(r.seen(), 100_000);
        let kept = r.sorted();
        assert_eq!(kept.len(), 1_000);
        // A uniform sample of 0..100k has its median near 50k.
        let mid = kept[500];
        assert!((40_000.0..60_000.0).contains(&mid), "median {mid}");
        let mut small = Reservoir::new(10);
        small.push(3.0);
        assert_eq!(small.sorted(), vec![3.0]);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
