//! Descriptive statistics: moments, trimmed statistics, and basic helpers.
//!
//! The paper reports 1 %-trimmed means, standard deviations and kurtosis for
//! hourly real-time prices (Figure 6) and raw moments for hour-to-hour price
//! changes (Figure 7). Both are provided here.

use serde::{Deserialize, Serialize};

/// Remove non-finite values from a sample, returning an owned vector.
///
/// Market data sets occasionally contain sentinel values or gaps; this keeps
/// downstream moment computations well-defined.
pub fn retain_finite(samples: &[f64]) -> Vec<f64> {
    samples.iter().copied().filter(|x| x.is_finite()).collect()
}

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Population variance (divides by `n`). Returns `None` for an empty slice.
pub fn variance(samples: &[f64]) -> Option<f64> {
    let m = mean(samples)?;
    let n = samples.len() as f64;
    Some(samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n)
}

/// Sample variance (divides by `n - 1`). Returns `None` if fewer than two samples.
pub fn sample_variance(samples: &[f64]) -> Option<f64> {
    if samples.len() < 2 {
        return None;
    }
    let m = mean(samples)?;
    let n = samples.len() as f64;
    Some(samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1.0))
}

/// Population standard deviation. Returns `None` for an empty slice.
pub fn std_dev(samples: &[f64]) -> Option<f64> {
    variance(samples).map(f64::sqrt)
}

/// Sample standard deviation (`n - 1` denominator).
pub fn sample_std_dev(samples: &[f64]) -> Option<f64> {
    sample_variance(samples).map(f64::sqrt)
}

/// Skewness (third standardized moment, population form).
///
/// Returns `None` for fewer than two samples or zero variance.
pub fn skewness(samples: &[f64]) -> Option<f64> {
    if samples.len() < 2 {
        return None;
    }
    let m = mean(samples)?;
    let sd = std_dev(samples)?;
    if sd == 0.0 {
        return None;
    }
    let n = samples.len() as f64;
    let m3 = samples.iter().map(|x| (x - m).powi(3)).sum::<f64>() / n;
    Some(m3 / sd.powi(3))
}

/// Kurtosis (fourth standardized moment, *non-excess*, population form).
///
/// A Gaussian has kurtosis 3.0. The paper reports values between ~4.6 and
/// ~466 for price and price-differential distributions, reflecting very
/// heavy tails.
///
/// Returns `None` for fewer than two samples or zero variance.
pub fn kurtosis(samples: &[f64]) -> Option<f64> {
    if samples.len() < 2 {
        return None;
    }
    let m = mean(samples)?;
    let var = variance(samples)?;
    if var == 0.0 {
        return None;
    }
    let n = samples.len() as f64;
    let m4 = samples.iter().map(|x| (x - m).powi(4)).sum::<f64>() / n;
    Some(m4 / (var * var))
}

/// Minimum of a sample. `None` when empty.
pub fn min(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().fold(None, |acc, x| match acc {
        None => Some(x),
        Some(m) => Some(m.min(x)),
    })
}

/// Maximum of a sample. `None` when empty.
pub fn max(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().fold(None, |acc, x| match acc {
        None => Some(x),
        Some(m) => Some(m.max(x)),
    })
}

/// Statistics of a symmetrically trimmed sample.
///
/// Produced by [`trimmed`]; mirrors the `Mean* / StDev* / Kurt.*` columns of
/// Figure 6 in the paper, which are computed from 1 %-trimmed data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrimmedStats {
    /// Fraction trimmed from *each* tail (e.g. 0.01 for the paper's 1 % trim).
    pub trim_fraction: f64,
    /// Number of samples remaining after trimming.
    pub retained: usize,
    /// Mean of the trimmed sample.
    pub mean: f64,
    /// Population standard deviation of the trimmed sample.
    pub std_dev: f64,
    /// Kurtosis (non-excess) of the trimmed sample.
    pub kurtosis: f64,
    /// Minimum retained value.
    pub min: f64,
    /// Maximum retained value.
    pub max: f64,
}

/// Compute mean / standard deviation / kurtosis of a symmetrically trimmed
/// sample.
///
/// `trim_fraction` is the fraction removed from **each** tail, so `0.01`
/// discards the lowest 1 % and the highest 1 % of samples (the paper's
/// "1 % trimmed data"). Values are clamped to `[0, 0.5)`.
///
/// Returns `None` if the trimmed sample would be empty.
pub fn trimmed(samples: &[f64], trim_fraction: f64) -> Option<TrimmedStats> {
    if samples.is_empty() {
        return None;
    }
    let trim_fraction = trim_fraction.clamp(0.0, 0.499_999);
    let mut sorted = retain_finite(samples);
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values are comparable"));
    let n = sorted.len();
    let cut = ((n as f64) * trim_fraction).floor() as usize;
    let kept = &sorted[cut..n - cut];
    if kept.is_empty() {
        return None;
    }
    Some(TrimmedStats {
        trim_fraction,
        retained: kept.len(),
        mean: mean(kept)?,
        std_dev: std_dev(kept)?,
        kurtosis: kurtosis(kept).unwrap_or(f64::NAN),
        min: kept[0],
        max: kept[kept.len() - 1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} vs {b} (eps {eps})");
    }

    #[test]
    fn mean_of_empty_is_none() {
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn mean_of_constant() {
        assert_eq!(mean(&[5.0; 10]), Some(5.0));
    }

    #[test]
    fn mean_simple() {
        assert_close(mean(&[1.0, 2.0, 3.0, 4.0]).unwrap(), 2.5, 1e-12);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_eq!(variance(&[3.0; 7]), Some(0.0));
    }

    #[test]
    fn population_vs_sample_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_close(variance(&xs).unwrap(), 4.0, 1e-12);
        assert_close(sample_variance(&xs).unwrap(), 32.0 / 7.0, 1e-12);
    }

    #[test]
    fn std_dev_known_value() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_close(std_dev(&xs).unwrap(), 2.0, 1e-12);
    }

    #[test]
    fn sample_variance_requires_two_points() {
        assert_eq!(sample_variance(&[1.0]), None);
    }

    #[test]
    fn skewness_of_symmetric_is_zero() {
        let xs = [-2.0, -1.0, 0.0, 1.0, 2.0];
        assert_close(skewness(&xs).unwrap(), 0.0, 1e-12);
    }

    #[test]
    fn skewness_right_tail_positive() {
        let xs = [1.0, 1.0, 1.0, 1.0, 50.0];
        assert!(skewness(&xs).unwrap() > 1.0);
    }

    #[test]
    fn kurtosis_of_constant_is_none() {
        assert_eq!(kurtosis(&[4.0; 5]), None);
    }

    #[test]
    fn kurtosis_two_point_distribution() {
        // Symmetric two-point distribution has kurtosis exactly 1.
        let xs = [-1.0, 1.0, -1.0, 1.0];
        assert_close(kurtosis(&xs).unwrap(), 1.0, 1e-12);
    }

    #[test]
    fn kurtosis_heavy_tail_exceeds_gaussian() {
        // Mostly small values with one huge spike, like an RT price series.
        let mut xs = vec![0.0; 999];
        xs.push(100.0);
        assert!(kurtosis(&xs).unwrap() > 100.0);
    }

    #[test]
    fn trimmed_removes_spikes() {
        let mut xs: Vec<f64> = (0..100).map(|i| 40.0 + (i % 5) as f64).collect();
        xs.push(1900.0); // the paper's largest observed differential spike
        xs.push(-150.0); // a negative-price hour
        let t = trimmed(&xs, 0.02).unwrap();
        assert!(t.mean < 50.0, "trimmed mean should ignore the spike");
        assert!(t.max < 100.0);
        assert!(t.min > 0.0);
        assert_eq!(t.retained, 102 - 4);
    }

    #[test]
    fn trimmed_zero_fraction_equals_raw() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let t = trimmed(&xs, 0.0).unwrap();
        assert_close(t.mean, mean(&xs).unwrap(), 1e-12);
        assert_close(t.std_dev, std_dev(&xs).unwrap(), 1e-12);
        assert_eq!(t.retained, xs.len());
    }

    #[test]
    fn trimmed_empty_is_none() {
        assert!(trimmed(&[], 0.01).is_none());
    }

    #[test]
    fn trimmed_handles_nan() {
        let xs = [1.0, f64::NAN, 3.0];
        let t = trimmed(&xs, 0.0).unwrap();
        assert_eq!(t.retained, 2);
        assert_close(t.mean, 2.0, 1e-12);
    }

    #[test]
    fn retain_finite_filters() {
        let xs = [1.0, f64::NAN, f64::INFINITY, 2.0, f64::NEG_INFINITY];
        assert_eq!(retain_finite(&xs), vec![1.0, 2.0]);
    }

    #[test]
    fn min_max() {
        let xs = [3.0, -1.0, 7.0, 2.0];
        assert_eq!(min(&xs), Some(-1.0));
        assert_eq!(max(&xs), Some(7.0));
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
    }
}
