//! Summary statistics for the experiment harness.
//!
//! Every experiment in the reproduction reports aggregates over 100
//! queries (mean ratio, mean I/O, percentile query times, …). This module
//! provides a small, allocation-conscious toolkit: a streaming
//! [`Welford`] accumulator for mean/variance, and a [`Summary`] built from
//! a sample with exact order statistics.

/// Streaming mean / variance accumulator (Welford's algorithm).
///
/// Numerically stable for long streams; O(1) memory.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one observation in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations added so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; `NaN` when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance; `NaN` for fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merge another accumulator (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        self.mean += d * other.n as f64 / n as f64;
        self.m2 += other.m2 + d * d * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
    }
}

/// Order-statistics summary of a finite sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (unbiased); 0 for n < 2.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (50th percentile, linear interpolation).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample. Returns `None` for an empty slice.
    pub fn of(sample: &[f64]) -> Option<Summary> {
        if sample.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = sample.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let mut w = Welford::new();
        for &x in &sorted {
            w.push(x);
        }
        Some(Summary {
            n: sorted.len(),
            mean: w.mean(),
            std_dev: if sorted.len() < 2 { 0.0 } else { w.std_dev() },
            min: sorted[0],
            median: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
            max: *sorted.last().unwrap(),
        })
    }
}

/// Percentile with linear interpolation over an **already sorted** sample.
///
/// `p` is in `[0, 100]`. Uses the common "exclusive of endpoints only at
/// the ends" definition: rank `r = p/100 · (n−1)`, interpolate between
/// `⌊r⌋` and `⌈r⌉`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let r = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = r.floor() as usize;
    let hi = r.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = r - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Arithmetic mean of a slice; `NaN` when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // naive unbiased variance = 32/7
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn welford_empty_and_single() {
        let w = Welford::new();
        assert!(w.mean().is_nan());
        assert!(w.variance().is_nan());
        let mut w = Welford::new();
        w.push(3.0);
        assert_eq!(w.mean(), 3.0);
        assert!(w.variance().is_nan());
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..337] {
            a.push(x);
        }
        for &x in &xs[337..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-8);
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn percentile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&s, 100.0), 4.0);
        assert!((percentile_sorted(&s, 50.0) - 2.5).abs() < 1e-12);
        assert!((percentile_sorted(&s, 25.0) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn summary_of_sample() {
        let s = Summary::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!(s.n, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    #[should_panic(expected = "percentile of empty")]
    fn percentile_empty_panics() {
        percentile_sorted(&[], 50.0);
    }
}
