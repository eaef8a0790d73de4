//! Fixed-bin histograms.
//!
//! Figures 7, 10 and 13 of the paper are histograms (hour-to-hour price
//! change, pairwise price differentials, and sustained-differential
//! durations). [`Histogram`] provides the binning, normalised densities and
//! in-range fractions those figures report.

use serde::{Deserialize, Serialize};

/// A histogram with uniformly sized bins over `[lo, hi)`, plus explicit
/// underflow/overflow counters so that no sample is silently dropped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bin_width: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Create a histogram with `bins` uniform bins covering `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo` — these are programming errors,
    /// not data errors.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            bin_width: (hi - lo) / bins as f64,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Build a histogram directly from a sample.
    pub fn from_samples(lo: f64, hi: f64, bins: usize, samples: &[f64]) -> Self {
        let mut h = Self::new(lo, hi, bins);
        h.add_all(samples);
        h
    }

    /// Record one observation. Non-finite values count as overflow.
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        if !x.is_finite() {
            self.overflow += 1;
            return;
        }
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / self.bin_width) as usize;
            // Guard against floating point landing exactly on the upper edge.
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Record many observations.
    pub fn add_all(&mut self, xs: &[f64]) {
        for &x in xs {
            self.add(x);
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Lower edge of the histogram range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper edge of the histogram range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Raw counts per bin.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper edge (plus non-finite values).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of observations recorded (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.bin_width
    }

    /// Lower edge of bin `i`.
    pub fn bin_lo(&self, i: usize) -> f64 {
        self.lo + i as f64 * self.bin_width
    }

    /// Fraction of all observations in each bin (sums to ≤ 1; the rest is
    /// under/overflow). This is the y-axis of Figures 7 and 10.
    pub fn fractions(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts.iter().map(|&c| c as f64 / self.total as f64).collect()
    }

    /// Probability density estimate per bin (fraction / bin width).
    pub fn densities(&self) -> Vec<f64> {
        self.fractions().into_iter().map(|f| f / self.bin_width).collect()
    }

    /// Fraction of all observations falling within `[a, b]`, computed from
    /// the raw samples' bin assignment (approximate at bin resolution).
    ///
    /// The paper annotates Figure 7 with "78 % of samples within ±20" style
    /// callouts; this provides the same quantity.
    pub fn fraction_between(&self, a: f64, b: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut covered = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let lo = self.bin_lo(i);
            let hi = lo + self.bin_width;
            if lo >= a && hi <= b {
                covered += c;
            }
        }
        covered as f64 / self.total as f64
    }

    /// Render the histogram as `(bin_center, fraction)` rows, convenient for
    /// the experiment harness to print.
    pub fn rows(&self) -> Vec<(f64, f64)> {
        self.fractions().iter().enumerate().map(|(i, &f)| (self.bin_center(i), f)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add_all(&[0.5, 1.5, 1.6, 9.9]);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.total(), 4);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn under_and_overflow_tracked() {
        let mut h = Histogram::new(-10.0, 10.0, 4);
        h.add(-11.0);
        h.add(10.0); // upper edge is exclusive
        h.add(250.0);
        h.add(f64::NAN);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 3);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn fractions_sum_with_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add_all(&[0.1, 0.6, 5.0]);
        let f = h.fractions();
        assert!((f.iter().sum::<f64>() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn densities_integrate_to_in_range_fraction() {
        let samples: Vec<f64> = (0..1000).map(|i| (i % 100) as f64 / 10.0).collect();
        let h = Histogram::from_samples(0.0, 10.0, 20, &samples);
        let integral: f64 = h.densities().iter().map(|d| d * h.bin_width()).sum();
        assert!((integral - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bin_centers() {
        let h = Histogram::new(-40.0, 40.0, 8);
        assert!((h.bin_center(0) - -35.0).abs() < 1e-12);
        assert!((h.bin_center(7) - 35.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_between_symmetric_window() {
        // 80 values inside [-20, 20], 20 outside.
        let mut xs = vec![];
        for i in 0..80 {
            xs.push(-19.0 + (i as f64) * 0.47);
        }
        for i in 0..20 {
            xs.push(30.0 + i as f64);
        }
        let h = Histogram::from_samples(-40.0, 60.0, 100, &xs);
        let frac = h.fraction_between(-20.0, 20.0);
        assert!((frac - 0.8).abs() < 0.05, "frac = {frac}");
    }

    #[test]
    fn rows_align_with_counts() {
        let h = Histogram::from_samples(0.0, 4.0, 4, &[0.1, 1.1, 1.2, 3.9]);
        let rows = h.rows();
        assert_eq!(rows.len(), 4);
        assert!((rows[1].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn inverted_range_panics() {
        let _ = Histogram::new(1.0, 0.0, 4);
    }
}
