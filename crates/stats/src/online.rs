//! Streaming (single-pass) statistics.
//!
//! The simulation engine accumulates per-cluster utilization over hundreds
//! of thousands of 5-minute steps; [`OnlineStats`] (Welford's algorithm)
//! lets it do so without storing every sample, tracking minima and maxima
//! alongside, and merges accumulators across shards.

use serde::{Deserialize, Serialize};

/// One step of Welford's update: fold the finite observation `x` into a
/// running `mean`, `m2` and `sum` whose count, `x` included, is `count`.
/// [`OnlineStats::push`] makes exactly this step, so a caller that keeps
/// several accumulators' parts side by side — stepping them together
/// under one shared count — gets a `push`'s bits in each.
#[inline]
pub fn welford_step(count: f64, mean: &mut f64, m2: &mut f64, sum: &mut f64, x: f64) {
    *sum += x;
    let delta = x - *mean;
    *mean += delta / count;
    *m2 += delta * (x - *mean);
}

/// Welford online mean / variance accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl OnlineStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY, sum: 0.0 }
    }

    /// Add one observation. Non-finite observations are ignored.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        welford_step(self.count as f64, &mut self.mean, &mut self.m2, &mut self.sum, x);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Rebuild an accumulator from its raw parts — the inverse of reading
    /// [`Self::count`]/[`Self::mean`]/[`Self::m2`]/[`Self::min`]/
    /// [`Self::max`]/[`Self::sum`]. Callers that persist an accumulator
    /// (e.g. an engine snapshot) round-trip through this; a zero `count`
    /// yields an accumulator equal to [`Self::new`] regardless of the other
    /// arguments.
    pub fn from_parts(count: u64, mean: f64, m2: f64, min: f64, max: f64, sum: f64) -> Self {
        if count == 0 {
            return Self::new();
        }
        Self { count, mean, m2, min, max, sum }
    }

    /// Number of (finite) observations pushed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The raw second-moment accumulator (Σ·(x−mean)² mass), exposed so the
    /// accumulator can be persisted losslessly via [`Self::from_parts`].
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Current mean; `None` before any observation.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Population variance; `None` before any observation.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Population standard deviation; `None` before any observation.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Minimum observation; `None` before any observation.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation; `None` before any observation.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean = (n1 * self.mean + n2 * other.mean) / total;
        self.m2 = self.m2 + other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive;
    use proptest::prelude::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} vs {b}");
    }

    #[test]
    fn online_matches_batch() {
        let xs: Vec<f64> = (0..500).map(|i| ((i * 37) % 113) as f64 - 50.0).collect();
        let mut o = OnlineStats::new();
        for &x in &xs {
            o.push(x);
        }
        assert_close(o.mean().unwrap(), descriptive::mean(&xs).unwrap(), 1e-9);
        assert_close(o.variance().unwrap(), descriptive::variance(&xs).unwrap(), 1e-9);
        assert_eq!(o.count(), xs.len() as u64);
        assert_eq!(o.min().unwrap(), descriptive::min(&xs).unwrap());
        assert_eq!(o.max().unwrap(), descriptive::max(&xs).unwrap());
    }

    #[test]
    fn online_empty_is_none() {
        let o = OnlineStats::new();
        assert_eq!(o.mean(), None);
        assert_eq!(o.variance(), None);
        assert_eq!(o.std_dev(), None);
        assert_eq!(o.min(), None);
        assert_eq!(o.max(), None);
    }

    #[test]
    fn online_ignores_nan() {
        let mut o = OnlineStats::new();
        o.push(1.0);
        o.push(f64::NAN);
        o.push(3.0);
        assert_eq!(o.count(), 2);
        assert_close(o.mean().unwrap(), 2.0, 1e-12);
    }

    #[test]
    fn merge_matches_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let (a, b) = xs.split_at(37);
        let mut oa = OnlineStats::new();
        let mut ob = OnlineStats::new();
        for &x in a {
            oa.push(x);
        }
        for &x in b {
            ob.push(x);
        }
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        oa.merge(&ob);
        assert_close(oa.mean().unwrap(), all.mean().unwrap(), 1e-9);
        assert_close(oa.variance().unwrap(), all.variance().unwrap(), 1e-9);
        assert_eq!(oa.count(), all.count());
    }

    // A caller stepping the parts by hand under a shared count, as the
    // engine's accumulate kernel steps its lanes, must land on the bits
    // `push` does, from any state.
    proptest! {
        #[test]
        fn welford_steps_under_the_count_match_push_bit_for_bit(
            count in 0u64..1_000_000,
            (mean, m2, sum) in (-2.0f64..2.0, 0.0f64..1.0e4, -1.0e6f64..1.0e6),
            (min, max) in (-2.0f64..0.0, 0.0f64..2.0),
            xs in prop::collection::vec(-2.0f64..2.0, 1..40),
        ) {
            let mut pushed = OnlineStats::from_parts(count, mean, m2, min, max, sum);
            let (mut mean, mut m2, mut sum) =
                (pushed.mean().unwrap_or(0.0), pushed.m2(), pushed.sum());
            let mut n = count as f64;
            for &x in &xs {
                // Every sign of zero too.
                let x = if x.abs() < 0.1 { 0.0f64.copysign(x) } else { x };
                pushed.push(x);
                n += 1.0;
                welford_step(n, &mut mean, &mut m2, &mut sum, x);
            }
            prop_assert_eq!(pushed.count(), count + xs.len() as u64);
            prop_assert_eq!(n, pushed.count() as f64);
            prop_assert_eq!(mean.to_bits(), pushed.mean().unwrap().to_bits());
            prop_assert_eq!(m2.to_bits(), pushed.m2().to_bits());
            prop_assert_eq!(sum.to_bits(), pushed.sum().to_bits());
        }
    }

    #[test]
    fn merge_with_empty() {
        let mut a = OnlineStats::new();
        a.push(5.0);
        let empty = OnlineStats::new();
        let mut b = a;
        b.merge(&empty);
        assert_eq!(b, a);
        let mut c = OnlineStats::new();
        c.merge(&a);
        assert_eq!(c.mean(), a.mean());
    }
}
