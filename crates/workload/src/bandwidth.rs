//! 95/5 bandwidth percentiles (§4 of the paper).
//!
//! Carriers bill on the 95th percentile of five-minute traffic samples.
//! Akamai's client→cluster assignment is already optimised against those
//! percentiles, so the paper constrains its price-conscious router to never
//! push a cluster's 95th percentile above the level observed under the
//! original assignment. This module computes those per-cluster levels.

use serde::{Deserialize, Serialize};
use wattroute_stats::quantiles;

/// The percentile carriers bill on.
const BILLED_PERCENTILE: f64 = 95.0;

/// 95th percentile of a series of five-minute samples.
///
/// Returns `None` for an empty series.
pub fn percentile_95(samples: &[f64]) -> Option<f64> {
    quantiles::percentile(samples, BILLED_PERCENTILE)
}

/// A five-minute load series stored as runs: each run is one value and the
/// number of consecutive samples that carried exactly its bits.
///
/// Routed loads are constant within an allocation epoch, so at an hourly
/// re-allocation interval the store is about twelve times smaller than the
/// raw series. Values and counts sit in parallel vectors, 12 bytes per
/// run; a run longer than `u32::MAX` samples continues in a second run of
/// the same value.
///
/// Every statistic is exact. A run ends wherever the bits change, so
/// sorting the runs stably and expanding them yields the series' own
/// stable sort, `±0.0` included: [`Self::percentile_95`] equals
/// [`percentile_95`] of [`Self::expand`] bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadRuns {
    values: Vec<f64>,
    counts: Vec<u32>,
}

impl LoadRuns {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compress a raw series.
    pub fn from_series(series: &[f64]) -> Self {
        let mut runs = Self::new();
        for &value in series {
            runs.push(value, 1);
        }
        runs
    }

    /// Append `count` samples of `value`, extending the last run when it
    /// holds the same bits.
    pub fn push(&mut self, value: f64, mut count: usize) {
        if let (Some(last), Some(last_count)) = (self.values.last(), self.counts.last_mut()) {
            if last.to_bits() == value.to_bits() {
                let merged = u32::try_from(count).unwrap_or(u32::MAX).min(u32::MAX - *last_count);
                *last_count += merged;
                count -= widen(merged);
            }
        }
        while count > 0 {
            let run = u32::try_from(count).unwrap_or(u32::MAX);
            self.values.push(value);
            self.counts.push(run);
            count -= widen(run);
        }
    }

    /// The runs in series order, as `(value, count)`.
    pub fn runs(&self) -> impl Iterator<Item = (f64, u32)> + '_ {
        self.values.iter().copied().zip(self.counts.iter().copied())
    }

    /// Number of runs.
    pub fn num_runs(&self) -> usize {
        self.values.len()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.counts.iter().map(|&c| widen(c)).sum()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The samples in order, one per five-minute step.
    pub fn samples(&self) -> impl Iterator<Item = f64> + '_ {
        self.runs().flat_map(|(value, count)| std::iter::repeat(value).take(widen(count)))
    }

    /// The raw series.
    pub fn expand(&self) -> Vec<f64> {
        let mut series = Vec::with_capacity(self.len());
        series.extend(self.samples());
        series
    }

    /// [`percentile_95`] of the series: the R-7 order statistics read off
    /// the stably sorted finite runs.
    pub fn percentile_95(&self) -> Option<f64> {
        self.percentile_95_weighted(&self.counts)
    }

    /// [`percentile_95`] of every `stride`-th finite sample: the finite
    /// samples at indices 0, `stride`, 2 × `stride`, … counted over the
    /// finite samples alone, in series order. A decimating reservoir that
    /// keeps every sample up to its capacity and then keeps every other
    /// one, doubling its stride, holds exactly these once its stride is
    /// `stride`. Each finite run counts its samples that land on a multiple
    /// of the stride, and the order statistics are read off the stably
    /// sorted runs as [`Self::percentile_95`] reads them.
    ///
    /// # Panics
    /// Panics unless `stride` is a power of two.
    pub fn percentile_95_every(&self, stride: usize) -> Option<f64> {
        assert!(stride.is_power_of_two(), "the stride is a power of two");
        if stride == 1 {
            return self.percentile_95();
        }
        // Multiples of the stride below `index`: ⌈index / stride⌉.
        let shift = stride.trailing_zeros();
        let multiples_below = |index: usize| (index + (stride - 1)) >> shift;
        let mut start = 0;
        let kept: Vec<u32> = self
            .runs()
            .map(|(value, count)| {
                if !value.is_finite() {
                    return 0;
                }
                let end = start + widen(count);
                let kept = multiples_below(end) - multiples_below(start);
                start = end;
                u32::try_from(kept).expect("a run keeps at most its own samples")
            })
            .collect();
        self.percentile_95_weighted(&kept)
    }

    /// The R-7 95th percentile of the series in which finite run `k` stands
    /// for `weights[k]` samples, read off the stably sorted runs.
    fn percentile_95_weighted(&self, weights: &[u32]) -> Option<f64> {
        // Sort the indices of the finite runs that hold a sample (4 bytes
        // each, where a copied run takes 16) by value; the sort is stable,
        // so equal values keep series order.
        let mut sorted: Vec<u32> = Vec::with_capacity(self.num_runs());
        sorted.extend(
            (0..self.num_runs())
                .filter(|&k| weights[k] > 0 && self.values[k].is_finite())
                .map(|k| u32::try_from(k).expect("a store holds fewer than 2^32 runs")),
        );
        if sorted.is_empty() {
            return None;
        }
        let value = |k: u32| self.values[widen(k)];
        sorted.sort_by(|&a, &b| {
            value(a).partial_cmp(&value(b)).expect("finite values are comparable")
        });
        let n = sorted.iter().map(|&k| widen(weights[widen(k)])).sum();
        let at = |i: usize| {
            let mut seen = 0;
            for &k in &sorted {
                seen += widen(weights[widen(k)]);
                if i < seen {
                    return value(k);
                }
            }
            unreachable!("order statistic {i} beyond {seen} samples")
        };
        Some(quantiles::quantile_sorted_by(n, BILLED_PERCENTILE / 100.0, at))
    }

    /// `f64::max` folded over the series from `init`. Repeating a value
    /// cannot change a running max, so one fold step per run suffices.
    pub fn fold_max(&self, init: f64) -> f64 {
        self.values.iter().copied().fold(init, f64::max)
    }
}

/// A run count or run index as a `usize`.
fn widen(x: u32) -> usize {
    usize::try_from(x).expect("a u32 fits in usize")
}

/// Per-cluster bandwidth/billing profile derived from an observed assignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthProfile {
    /// 95th percentile of each cluster's five-minute hit rate under the
    /// observed (baseline) assignment, in hits/second. Indexed by cluster
    /// position.
    pub p95_hits_per_sec: Vec<f64>,
}

impl BandwidthProfile {
    /// Build a profile from per-cluster load series (`loads[cluster][step]`,
    /// hits/second at 5-minute resolution). Each series is compressed to
    /// [`LoadRuns`], whose 95th percentile is [`percentile_95`]'s bit for
    /// bit.
    ///
    /// Returns `None` if any cluster's series is empty.
    pub fn from_cluster_loads(loads: &[Vec<f64>]) -> Option<BandwidthProfile> {
        let p95_hits_per_sec = loads
            .iter()
            .map(|series| LoadRuns::from_series(series).percentile_95())
            .collect::<Option<Vec<f64>>>()?;
        Some(BandwidthProfile { p95_hits_per_sec })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_95_ignores_top_five_percent() {
        let mut series: Vec<f64> = vec![100.0; 95];
        series.extend(vec![10_000.0; 5]);
        let p = percentile_95(&series).unwrap();
        assert!(p < 5_000.0, "p95 = {p} should be dominated by the 100s");
        assert_eq!(percentile_95(&[]), None);
    }

    #[test]
    fn profile_from_loads() {
        let loads = vec![(0..100).map(|i| i as f64).collect::<Vec<_>>(), vec![50.0; 100]];
        let profile = BandwidthProfile::from_cluster_loads(&loads).unwrap();
        assert_eq!(profile.p95_hits_per_sec.len(), 2);
        assert!((profile.p95_hits_per_sec[0] - 94.05).abs() < 0.5);
        assert_eq!(profile.p95_hits_per_sec[1], 50.0);
    }

    #[test]
    fn empty_cluster_series_rejected() {
        let loads = vec![vec![1.0, 2.0], vec![]];
        assert!(BandwidthProfile::from_cluster_loads(&loads).is_none());
    }
}
