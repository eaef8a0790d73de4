//! Price-differential analysis between pairs of hubs (§3.3 of the paper).
//!
//! The economic opportunity the paper identifies lives entirely in the
//! *differential* between two locations' prices: if the differential is
//! zero-mean but high-variance, a dynamic router that always buys from the
//! cheaper side beats any static placement. This module provides the
//! differential series itself plus the summaries used by Figures 9-13:
//! distribution statistics, monthly evolution, hour-of-day dependence, and
//! the duration of sustained differentials.

use crate::time::SimHour;
use crate::types::PriceSeries;
use serde::{Deserialize, Serialize};
use wattroute_geo::HubId;
use wattroute_stats::{descriptive, quantiles, timeseries};

/// Default threshold (in $/MWh) below which a differential is considered
/// negligible; used both by the duration analysis (Figure 13) and by the
/// price-conscious router's price threshold (§6.1).
pub const DEFAULT_PRICE_THRESHOLD: f64 = 5.0;

/// The hourly price differential `a - b` between two hubs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Differential {
    /// First hub (the minuend).
    pub hub_a: HubId,
    /// Second hub (the subtrahend).
    pub hub_b: HubId,
    /// First hour covered.
    pub start: SimHour,
    /// Hourly values of `price_a - price_b` in $/MWh.
    pub values: Vec<f64>,
}

/// Summary statistics of a differential distribution (the annotations of
/// Figure 10: mean, standard deviation, kurtosis).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DifferentialStats {
    /// Mean differential in $/MWh.
    pub mean: f64,
    /// Standard deviation in $/MWh.
    pub std_dev: f64,
    /// Kurtosis (non-excess).
    pub kurtosis: f64,
    /// Fraction of hours in which hub A is strictly cheaper than hub B.
    pub fraction_a_cheaper: f64,
    /// Fraction of hours in which hub A is cheaper by more than
    /// [`DEFAULT_PRICE_THRESHOLD`].
    pub fraction_a_cheaper_by_threshold: f64,
    /// Fraction of hours in which hub B is cheaper by more than
    /// [`DEFAULT_PRICE_THRESHOLD`].
    pub fraction_b_cheaper_by_threshold: f64,
}

impl Differential {
    /// Compute the differential between two price series. The series must
    /// cover the same hours.
    ///
    /// Returns `None` if the series have different starts or lengths.
    pub fn between(a: &PriceSeries, b: &PriceSeries) -> Option<Differential> {
        if a.start != b.start || a.prices.len() != b.prices.len() {
            return None;
        }
        let values = timeseries::pairwise_difference(&a.prices, &b.prices)?;
        Some(Differential { hub_a: a.hub, hub_b: b.hub, start: a.start, values })
    }

    /// Summary statistics of the differential distribution.
    pub fn stats(&self) -> Option<DifferentialStats> {
        if self.values.is_empty() {
            return None;
        }
        let n = self.values.len() as f64;
        let a_cheaper = self.values.iter().filter(|&&d| d < 0.0).count() as f64 / n;
        let a_by_thresh =
            self.values.iter().filter(|&&d| d < -DEFAULT_PRICE_THRESHOLD).count() as f64 / n;
        let b_by_thresh =
            self.values.iter().filter(|&&d| d > DEFAULT_PRICE_THRESHOLD).count() as f64 / n;
        Some(DifferentialStats {
            mean: descriptive::mean(&self.values)?,
            std_dev: descriptive::std_dev(&self.values)?,
            kurtosis: descriptive::kurtosis(&self.values).unwrap_or(f64::NAN),
            fraction_a_cheaper: a_cheaper,
            fraction_a_cheaper_by_threshold: a_by_thresh,
            fraction_b_cheaper_by_threshold: b_by_thresh,
        })
    }

    /// Whether the pair is *dynamically exploitable*: neither side is
    /// strictly better, i.e. each side is cheaper by more than the price
    /// threshold for at least `min_fraction` of the hours.
    ///
    /// The paper's §3.3 notes 60 pairs with |µ| ≤ 5 and σ ≥ 50, the kind of
    /// pair for which dynamic routing clearly beats a static choice.
    pub fn is_dynamically_exploitable(&self, min_fraction: f64) -> bool {
        match self.stats() {
            Some(s) => {
                s.fraction_a_cheaper_by_threshold >= min_fraction
                    && s.fraction_b_cheaper_by_threshold >= min_fraction
            }
            None => false,
        }
    }

    /// Median and inter-quartile range of the differential for each month
    /// index (Figure 11). Returns `(month_index, summary)` pairs in
    /// ascending month order.
    pub fn monthly_distribution(&self) -> Vec<(u64, quantiles::MedianIqr)> {
        let start = self.start;
        let groups = timeseries::group_values(&self.values, |i| {
            SimHour(start.0 + i as u64).month_index() as usize
        });
        groups
            .into_iter()
            .filter_map(|(month, vals)| quantiles::median_iqr(&vals).map(|s| (month as u64, s)))
            .collect()
    }

    /// Median and inter-quartile range of the differential for each hour of
    /// the day, in the reference (Eastern) time zone as in Figure 12.
    pub fn hour_of_day_distribution(&self) -> Vec<(u64, quantiles::MedianIqr)> {
        let start = self.start;
        let groups = timeseries::group_values(&self.values, |i| {
            SimHour(start.0 + i as u64).hour_of_day_eastern() as usize
        });
        groups
            .into_iter()
            .filter_map(|(hour, vals)| quantiles::median_iqr(&vals).map(|s| (hour as u64, s)))
            .collect()
    }

    /// Durations (in hours) of sustained differentials exceeding
    /// `threshold` $/MWh in favour of either side, following the paper's
    /// definition in §3.3: a differential ends as soon as it falls below the
    /// threshold or reverses sign.
    pub fn sustained_durations(&self, threshold: f64) -> Vec<usize> {
        let mut durations = Vec::new();
        let mut current_sign = 0i8;
        let mut current_len = 0usize;
        for &d in &self.values {
            let sign = if d > threshold {
                1
            } else if d < -threshold {
                -1
            } else {
                0
            };
            if sign == current_sign && sign != 0 {
                current_len += 1;
            } else {
                if current_sign != 0 && current_len > 0 {
                    durations.push(current_len);
                }
                current_sign = sign;
                current_len = usize::from(sign != 0);
            }
        }
        if current_sign != 0 && current_len > 0 {
            durations.push(current_len);
        }
        durations
    }

    /// Fraction of total time spent in sustained differentials of each
    /// duration (the y-axis of Figure 13). Returns `(duration_hours,
    /// fraction_of_total_time)` pairs sorted by duration.
    pub fn duration_time_fractions(&self, threshold: f64) -> Vec<(usize, f64)> {
        use std::collections::BTreeMap;
        let total = self.values.len();
        if total == 0 {
            return Vec::new();
        }
        let mut time_by_duration: BTreeMap<usize, usize> = BTreeMap::new();
        for d in self.sustained_durations(threshold) {
            *time_by_duration.entry(d).or_insert(0) += d;
        }
        time_by_duration.into_iter().map(|(d, hours)| (d, hours as f64 / total as f64)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::PriceGenerator;
    use crate::time::HourRange;
    use crate::types::MarketKind;

    fn series(hub: HubId, start: u64, prices: Vec<f64>) -> PriceSeries {
        PriceSeries::new(hub, MarketKind::RealTimeHourly, SimHour(start), prices)
    }

    #[test]
    fn differential_requires_aligned_series() {
        let a = series(HubId::PaloAltoCa, 0, vec![50.0, 60.0]);
        let b = series(HubId::RichmondVa, 0, vec![55.0, 40.0]);
        let d = Differential::between(&a, &b).unwrap();
        assert_eq!(d.values, vec![-5.0, 20.0]);

        let misaligned = series(HubId::RichmondVa, 1, vec![55.0, 40.0]);
        assert!(Differential::between(&a, &misaligned).is_none());
        let short = series(HubId::RichmondVa, 0, vec![55.0]);
        assert!(Differential::between(&a, &short).is_none());
    }

    #[test]
    fn stats_fractions() {
        let a = series(HubId::BostonMa, 0, vec![50.0, 50.0, 50.0, 50.0]);
        let b = series(HubId::NewYorkNy, 0, vec![40.0, 60.0, 52.0, 80.0]);
        let d = Differential::between(&a, &b).unwrap();
        let s = d.stats().unwrap();
        // a - b = [10, -10, -2, -30]
        assert!((s.mean - -8.0).abs() < 1e-9);
        assert!((s.fraction_a_cheaper - 0.75).abs() < 1e-9);
        assert!((s.fraction_a_cheaper_by_threshold - 0.5).abs() < 1e-9);
        assert!((s.fraction_b_cheaper_by_threshold - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_differential_has_no_stats() {
        let a = series(HubId::BostonMa, 0, vec![]);
        let b = series(HubId::NewYorkNy, 0, vec![]);
        let d = Differential::between(&a, &b).unwrap();
        assert!(d.stats().is_none());
        assert!(d.duration_time_fractions(5.0).is_empty());
    }

    #[test]
    fn sustained_durations_track_sign_and_threshold() {
        let a = series(HubId::PaloAltoCa, 0, vec![60.0, 60.0, 60.0, 50.0, 40.0, 40.0, 52.0, 60.0]);
        let b = series(HubId::RichmondVa, 0, vec![50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0]);
        let d = Differential::between(&a, &b).unwrap();
        // diff: [10,10,10,0,-10,-10,2,10] threshold 5:
        // run of +1 length 3, then below-threshold, run of -1 length 2, gap, run of +1 length 1
        assert_eq!(d.sustained_durations(5.0), vec![3, 2, 1]);
    }

    #[test]
    fn duration_fractions_weight_by_time() {
        let values = vec![10.0, 10.0, 10.0, 0.0, -10.0, -10.0, 0.0, 10.0];
        let d = Differential {
            hub_a: HubId::PaloAltoCa,
            hub_b: HubId::RichmondVa,
            start: SimHour(0),
            values,
        };
        let fr = d.duration_time_fractions(5.0);
        // Durations: 3 (hours 0-2), 2 (hours 4-5), 1 (hour 7): fractions 3/8, 2/8, 1/8.
        assert_eq!(fr, vec![(1, 0.125), (2, 0.25), (3, 0.375)]);
    }

    #[test]
    fn reversal_ends_a_run() {
        let values = vec![10.0, 10.0, -10.0, -10.0];
        let d = Differential {
            hub_a: HubId::ChicagoIl,
            hub_b: HubId::PeoriaIl,
            start: SimHour(0),
            values,
        };
        assert_eq!(d.sustained_durations(5.0), vec![2, 2]);
    }

    #[test]
    fn hour_of_day_grouping_covers_24_hours() {
        let g = PriceGenerator::nine_cluster_default(41);
        let start = SimHour::from_date(2006, 6, 1);
        let r = HourRange::new(start, start.plus_hours(24 * 28));
        let set = g.realtime_hourly(r);
        let d = Differential::between(
            set.for_hub(HubId::PaloAltoCa).unwrap(),
            set.for_hub(HubId::RichmondVa).unwrap(),
        )
        .unwrap();
        let by_hour = d.hour_of_day_distribution();
        assert_eq!(by_hour.len(), 24);
        // Figure 12: before ~5 am Eastern, Virginia has the edge (the
        // differential Palo Alto − Virginia is positive), by mid-morning the
        // situation reverses. Check the qualitative time-of-day dependence:
        // the early-morning median exceeds the late-morning median.
        let median_at = |h: u64| by_hour.iter().find(|(hr, _)| *hr == h).unwrap().1.median;
        let early = (1..=4).map(median_at).sum::<f64>() / 4.0;
        let late_morning = (9..=12).map(median_at).sum::<f64>() / 4.0;
        assert!(
            early > late_morning,
            "expected PaloAlto-Virginia differential to fall after sunrise: {early} vs {late_morning}"
        );
    }

    #[test]
    fn monthly_grouping_spans_months() {
        let g = PriceGenerator::nine_cluster_default(43);
        let start = SimHour::from_date(2006, 1, 1);
        let r = HourRange::new(start, start.plus_hours(24 * 100));
        let set = g.realtime_hourly(r);
        let d = Differential::between(
            set.for_hub(HubId::PaloAltoCa).unwrap(),
            set.for_hub(HubId::RichmondVa).unwrap(),
        )
        .unwrap();
        let monthly = d.monthly_distribution();
        assert!(monthly.len() >= 4);
        assert_eq!(monthly[0].0, 0);
        for (_, summary) in &monthly {
            assert!(summary.q1 <= summary.median && summary.median <= summary.q3);
        }
    }

    #[test]
    fn cross_country_pair_is_dynamically_exploitable() {
        // Figure 10a: the Palo Alto / Virginia differential is roughly
        // zero-mean with large variance — both sides are cheaper a
        // substantial fraction of the time.
        let g = PriceGenerator::nine_cluster_default(47);
        let start = SimHour::from_date(2006, 1, 1);
        let r = HourRange::new(start, start.plus_hours(24 * 180));
        let set = g.realtime_hourly(r);
        let d = Differential::between(
            set.for_hub(HubId::PaloAltoCa).unwrap(),
            set.for_hub(HubId::RichmondVa).unwrap(),
        )
        .unwrap();
        assert!(d.is_dynamically_exploitable(0.15), "stats: {:?}", d.stats());
    }
}
