//! Quantiles, medians, inter-quartile ranges, and the 95th percentile used by
//! the 95/5 bandwidth billing model (§4 of the paper).

use serde::{Deserialize, Serialize};

/// Compute the `q`-th quantile (`0.0 ..= 1.0`) of a sample using linear
/// interpolation between order statistics (the "R-7" rule used by most
/// spreadsheet and numerical packages).
///
/// Non-finite samples are ignored. Returns `None` if no finite samples
/// remain or if `q` is outside `[0, 1]`.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values are comparable"));
    Some(quantile_sorted(&sorted, q))
}

/// Quantile of an **already sorted, finite** sample. Panics only if the slice
/// is empty (callers should guard, as [`quantile`] does).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    quantile_sorted_by(sorted.len(), q, |i| sorted[i])
}

/// [`quantile_sorted`] of a sorted, finite sample of `n` values that is
/// not laid out as one slice (a run-length store, say): `at(i)` returns
/// the sample's `i`-th smallest value, counting from 0. Reads at most two
/// order statistics. Panics if `n` is zero.
pub fn quantile_sorted_by(n: usize, q: f64, at: impl Fn(usize) -> f64) -> f64 {
    assert!(n > 0, "quantile of empty sample");
    if n == 1 {
        return at(0);
    }
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        at(lo)
    } else {
        let frac = pos - lo as f64;
        at(lo) * (1.0 - frac) + at(hi) * frac
    }
}

/// Percentile in `[0, 100]`; thin wrapper over [`quantile`].
///
/// `percentile(samples, 95.0)` is the value used for 95/5 bandwidth billing:
/// traffic is divided into five-minute intervals and the 95th percentile of
/// those intervals is what the carrier bills for.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    quantile(samples, p / 100.0)
}

/// Conditional value-at-risk (expected shortfall) at level `alpha` in
/// `[0, 1)`: the expected value of a sample *given* that it falls in the
/// worst (highest) `1 - alpha` tail. For a cost distribution,
/// `cvar(bills, 0.95)` answers "when the bill lands in its worst 5% of
/// outcomes, how much do I pay on average?" — the risk measure the Monte
/// Carlo layer reports for the electric bill.
///
/// Computed with the Rockafellar–Uryasev estimator
///
/// ```text
/// CVaR_α = VaR_α + E[(X − VaR_α)⁺] / (1 − α)
/// ```
///
/// where `VaR_α` is the R-7 [`quantile`] at `alpha`. This form is
/// continuous in `alpha`, agrees with the closed-form tail mean for
/// continuous distributions, and degrades gracefully on tiny samples:
/// a single sample is its own CVaR, an all-equal sample returns the
/// common value, and `alpha = 0` reduces to the plain mean.
///
/// Non-finite samples are ignored. Returns `None` if no finite samples
/// remain or if `alpha` is outside `[0, 1)`.
pub fn cvar(samples: &[f64], alpha: f64) -> Option<f64> {
    if !(0.0..1.0).contains(&alpha) {
        return None;
    }
    let finite: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    if finite.is_empty() {
        return None;
    }
    let var = quantile(&finite, alpha).expect("finite non-empty sample has a quantile");
    let n = finite.len() as f64;
    let excess: f64 = finite.iter().map(|x| (x - var).max(0.0)).sum::<f64>() / n;
    Some(var + excess / (1.0 - alpha))
}

/// Median (50th percentile).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// First, second (median) and third quartiles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Quartiles {
    /// 25th percentile.
    pub q1: f64,
    /// 50th percentile (median).
    pub q2: f64,
    /// 75th percentile.
    pub q3: f64,
}

impl Quartiles {
    /// Inter-quartile range `q3 - q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Compute the three quartiles of a sample. `None` if the sample has no
/// finite values.
pub fn quartiles(samples: &[f64]) -> Option<Quartiles> {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values are comparable"));
    Some(Quartiles {
        q1: quantile_sorted(&sorted, 0.25),
        q2: quantile_sorted(&sorted, 0.50),
        q3: quantile_sorted(&sorted, 0.75),
    })
}

/// Inter-quartile range. `None` if the sample has no finite values.
pub fn iqr(samples: &[f64]) -> Option<f64> {
    quartiles(samples).map(|q| q.iqr())
}

/// A (median, inter-quartile-range) summary, used to describe price
/// differential distributions per month (Figure 11) and per hour-of-day
/// (Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MedianIqr {
    /// Median of the sample.
    pub median: f64,
    /// 25th percentile.
    pub q1: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Number of finite samples summarised.
    pub count: usize,
}

/// Summarise a sample as median plus quartiles, the representation used by
/// Figures 11 and 12 of the paper.
pub fn median_iqr(samples: &[f64]) -> Option<MedianIqr> {
    let finite: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    let q = quartiles(&finite)?;
    Some(MedianIqr { median: q.q2, q1: q.q1, q3: q.q3, count: finite.len() })
}

/// Fraction of samples with absolute value at or above `threshold`.
/// Returns `None` when empty.
///
/// Used for statements like "the price per MWh changed hourly by $20 or more
/// roughly 20 % of the time" (§3.1).
pub fn fraction_abs_at_least(samples: &[f64], threshold: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let hits = samples.iter().filter(|&&x| x.abs() >= threshold).count();
    Some(hits as f64 / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} vs {b}");
    }

    #[test]
    fn quantile_bounds() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_close(quantile(&xs, 0.5).unwrap(), 2.5, 1e-12);
        assert_close(quantile(&xs, 0.25).unwrap(), 1.75, 1e-12);
    }

    #[test]
    fn quantile_rejects_out_of_range() {
        assert_eq!(quantile(&[1.0], 1.5), None);
        assert_eq!(quantile(&[1.0], -0.1), None);
    }

    #[test]
    fn quantile_empty_is_none() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[f64::NAN], 0.5), None);
    }

    #[test]
    fn quantile_unsorted_input() {
        let xs = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_close(median(&xs).unwrap(), 5.0, 1e-12);
    }

    #[test]
    fn percentile_95_for_billing() {
        // 100 five-minute samples: 95/5 billing should ignore the top 5.
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let p95 = percentile(&xs, 95.0).unwrap();
        assert!((95.0..=96.0).contains(&p95), "p95 = {p95}");
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_close(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5, 1e-12);
    }

    #[test]
    fn quartiles_and_iqr() {
        let xs: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        let q = quartiles(&xs).unwrap();
        assert_close(q.q1, 25.0, 1e-9);
        assert_close(q.q2, 50.0, 1e-9);
        assert_close(q.q3, 75.0, 1e-9);
        assert_close(q.iqr(), 50.0, 1e-9);
        assert_close(iqr(&xs).unwrap(), 50.0, 1e-9);
    }

    #[test]
    fn median_iqr_summary() {
        let xs = [10.0, 20.0, 30.0, 40.0, f64::NAN];
        let s = median_iqr(&xs).unwrap();
        assert_eq!(s.count, 4);
        assert_close(s.median, 25.0, 1e-12);
        assert!(s.q1 < s.median && s.median < s.q3);
    }

    #[test]
    fn fraction_abs_at_least_works() {
        // Mimics "hourly change of $20 or more ~20% of the time".
        let xs = [-25.0, 5.0, 3.0, 21.0, -2.0, 0.0, 1.0, -4.0, 6.0, 2.0];
        assert_close(fraction_abs_at_least(&xs, 20.0).unwrap(), 0.2, 1e-12);
    }

    #[test]
    fn single_sample_quantiles() {
        assert_eq!(quantile(&[42.0], 0.3), Some(42.0));
        let q = quartiles(&[42.0]).unwrap();
        assert_eq!(q.q1, 42.0);
        assert_eq!(q.q3, 42.0);
    }

    #[test]
    fn cvar_closed_form_fixture() {
        // 1..=100 at α = 0.95: VaR = 95.05 (R-7), excess mass above it is
        // (0.95 + 1.95 + 2.95 + 3.95 + 4.95)/100 = 0.1475, so
        // CVaR = 95.05 + 0.1475/0.05 = 98.0 exactly.
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_close(cvar(&xs, 0.95).unwrap(), 98.0, 1e-12);
    }

    #[test]
    fn cvar_alpha_zero_is_the_mean() {
        let xs = [10.0, 20.0, 60.0, 30.0];
        assert_close(cvar(&xs, 0.0).unwrap(), 30.0, 1e-12);
    }

    #[test]
    fn cvar_dominates_var_and_orders_with_alpha() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64 * 0.7).sin() * 30.0 + 60.0).collect();
        let c90 = cvar(&xs, 0.90).unwrap();
        let c95 = cvar(&xs, 0.95).unwrap();
        let v95 = quantile(&xs, 0.95).unwrap();
        assert!(c95 >= v95, "CVaR must not be below VaR: {c95} vs {v95}");
        assert!(c95 >= c90, "deeper tails cannot be cheaper: {c95} vs {c90}");
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(c95 <= max + 1e-12, "CVaR cannot exceed the worst outcome");
    }

    #[test]
    fn cvar_edge_cases() {
        // Empty and all-NaN samples have no tail to average.
        assert_eq!(cvar(&[], 0.95), None);
        assert_eq!(cvar(&[f64::NAN, f64::INFINITY], 0.95), None);
        // A single sample is its own worst case.
        assert_eq!(cvar(&[42.0], 0.95), Some(42.0));
        // An all-equal sample returns the common value.
        assert_close(cvar(&[7.0; 12], 0.9).unwrap(), 7.0, 1e-12);
        // Non-finite samples are ignored, not propagated.
        assert_close(cvar(&[1.0, 2.0, f64::NAN, 3.0], 0.0).unwrap(), 2.0, 1e-12);
        // α = 1 would divide by zero; it is rejected, as is anything outside
        // [0, 1).
        assert_eq!(cvar(&[1.0, 2.0], 1.0), None);
        assert_eq!(cvar(&[1.0, 2.0], -0.1), None);
        assert_eq!(cvar(&[1.0, 2.0], f64::NAN), None);
    }

    #[test]
    fn cvar_handles_negative_costs() {
        // Negative electricity prices are real (§2.2); the estimator must
        // not assume positivity.
        let xs = [-50.0, -20.0, -10.0, 0.0, 5.0];
        let c = cvar(&xs, 0.8).unwrap();
        // The estimator never exceeds the worst sample (modulo rounding in
        // the excess/(1−α) division).
        assert!(c > 0.0 && c <= 5.0 + 1e-9, "tail of {xs:?} is the +5 outcome, got {c}");
    }
}
