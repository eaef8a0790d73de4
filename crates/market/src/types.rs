//! Core market data types: market kinds and price series.

use crate::time::{HourRange, SimHour, STEPS_PER_HOUR_5MIN};
use serde::{Deserialize, Serialize};
use wattroute_geo::HubId;

/// Price unit used throughout: US dollars per megawatt-hour.
pub type DollarsPerMwh = f64;

/// The wholesale market products modelled (§2.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MarketKind {
    /// Hourly real-time (balancing/spot) prices — the market the paper's
    /// routing analysis uses exclusively.
    RealTimeHourly,
    /// Five-minute real-time prices underlying the hourly averages.
    RealTimeFiveMinute,
    /// Day-ahead (futures) hourly prices, set the previous day.
    DayAhead,
}

impl MarketKind {
    /// Number of samples per hour for this product.
    pub fn samples_per_hour(&self) -> u64 {
        match self {
            MarketKind::RealTimeFiveMinute => STEPS_PER_HOUR_5MIN,
            _ => 1,
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            MarketKind::RealTimeHourly => "real-time hourly",
            MarketKind::RealTimeFiveMinute => "real-time 5-minute",
            MarketKind::DayAhead => "day-ahead hourly",
        }
    }
}

/// A contiguous series of prices for one hub and one market product.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriceSeries {
    /// The hub the prices apply to.
    pub hub: HubId,
    /// The market product.
    pub kind: MarketKind,
    /// First hour covered by the series.
    pub start: SimHour,
    /// Prices in $/MWh. For hourly products there is one sample per hour;
    /// for the 5-minute product there are twelve samples per hour, in order.
    pub prices: Vec<DollarsPerMwh>,
}

impl PriceSeries {
    /// Create a series; the number of samples must be a whole number of
    /// hours for the product's sampling rate.
    pub fn new(hub: HubId, kind: MarketKind, start: SimHour, prices: Vec<DollarsPerMwh>) -> Self {
        let sph = kind.samples_per_hour() as usize;
        assert!(
            prices.len() % sph == 0,
            "series length {} is not a whole number of hours at {} samples/hour",
            prices.len(),
            sph
        );
        Self { hub, kind, start, prices }
    }

    /// Number of hours covered.
    pub fn len_hours(&self) -> u64 {
        (self.prices.len() as u64) / self.kind.samples_per_hour()
    }

    /// The hour range covered.
    pub fn range(&self) -> HourRange {
        HourRange::new(self.start, self.start.plus_hours(self.len_hours()))
    }

    /// Price in effect at a given hour, or `None` if outside the series.
    /// For the 5-minute product this returns the average of the hour's
    /// twelve samples.
    pub fn price_at(&self, hour: SimHour) -> Option<DollarsPerMwh> {
        if hour.0 < self.start.0 {
            return None;
        }
        let offset = (hour.0 - self.start.0) as usize;
        match self.kind {
            MarketKind::RealTimeFiveMinute => {
                let sph = STEPS_PER_HOUR_5MIN as usize;
                let base = offset * sph;
                if base + sph > self.prices.len() {
                    return None;
                }
                Some(self.prices[base..base + sph].iter().sum::<f64>() / sph as f64)
            }
            _ => self.prices.get(offset).copied(),
        }
    }

    /// Price at a given hour with a *reaction delay*: the router acting at
    /// `hour` only knows the price from `delay_hours` earlier (§6.4 of the
    /// paper; the default simulation uses a one-hour delay). Hours before
    /// the series start clamp to the first sample.
    pub fn delayed_price_at(&self, hour: SimHour, delay_hours: u64) -> Option<DollarsPerMwh> {
        let effective = SimHour(hour.0.saturating_sub(delay_hours).max(self.start.0));
        self.price_at(effective)
    }

    /// All hourly prices as a plain vector (averaging within the hour for
    /// the 5-minute product).
    pub fn hourly_prices(&self) -> Vec<DollarsPerMwh> {
        match self.kind {
            MarketKind::RealTimeFiveMinute => self
                .prices
                .chunks(STEPS_PER_HOUR_5MIN as usize)
                .map(|c| c.iter().sum::<f64>() / c.len() as f64)
                .collect(),
            _ => self.prices.clone(),
        }
    }

    /// Restrict the series to a sub-range of hours (intersection).
    pub fn slice(&self, range: HourRange) -> PriceSeries {
        let start = range.start.0.max(self.start.0);
        let end = range.end.0.min(self.start.0 + self.len_hours());
        if end <= start {
            return PriceSeries::new(self.hub, self.kind, SimHour(start), Vec::new());
        }
        let sph = self.kind.samples_per_hour() as usize;
        let lo = (start - self.start.0) as usize * sph;
        let hi = (end - self.start.0) as usize * sph;
        PriceSeries::new(self.hub, self.kind, SimHour(start), self.prices[lo..hi].to_vec())
    }

    /// Mean price over the whole series.
    pub fn mean(&self) -> Option<DollarsPerMwh> {
        wattroute_stats::mean(&self.prices)
    }
}

/// Hourly real-time prices for a set of hubs over a common range — the data
/// set consumed by the routing simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriceSet {
    /// One hourly series per hub. All series cover the same range.
    pub series: Vec<PriceSeries>,
}

impl PriceSet {
    /// Build a set from individual series, validating that ranges match.
    pub fn new(series: Vec<PriceSeries>) -> Self {
        if let Some(first) = series.first() {
            for s in &series {
                assert_eq!(s.start, first.start, "price series must share a start hour");
                assert_eq!(s.len_hours(), first.len_hours(), "price series must share a length");
            }
        }
        Self { series }
    }

    /// The series for a given hub, if present.
    pub fn for_hub(&self, hub: HubId) -> Option<&PriceSeries> {
        self.series.iter().find(|s| s.hub == hub)
    }

    /// Hubs present in the set.
    pub fn hubs(&self) -> Vec<HubId> {
        self.series.iter().map(|s| s.hub).collect()
    }

    /// The common hour range, or `None` if the set is empty.
    pub fn range(&self) -> Option<HourRange> {
        self.series.first().map(|s| s.range())
    }

    /// Hub with the lowest mean price over the whole set — the "cheapest
    /// market" a static placement would choose (§6.3, Figure 18).
    pub fn cheapest_hub_on_average(&self) -> Option<HubId> {
        self.series
            .iter()
            .filter_map(|s| s.mean().map(|m| (s.hub, m)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite means"))
            .map(|(hub, _)| hub)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hourly(hub: HubId, start: SimHour, prices: Vec<f64>) -> PriceSeries {
        PriceSeries::new(hub, MarketKind::RealTimeHourly, start, prices)
    }

    #[test]
    fn price_lookup_in_and_out_of_range() {
        let s = hourly(HubId::BostonMa, SimHour(10), vec![50.0, 60.0, 70.0]);
        assert_eq!(s.price_at(SimHour(10)), Some(50.0));
        assert_eq!(s.price_at(SimHour(12)), Some(70.0));
        assert_eq!(s.price_at(SimHour(13)), None);
        assert_eq!(s.price_at(SimHour(9)), None);
        assert_eq!(s.len_hours(), 3);
    }

    #[test]
    fn delayed_price_clamps_to_start() {
        let s = hourly(HubId::BostonMa, SimHour(10), vec![50.0, 60.0, 70.0]);
        assert_eq!(s.delayed_price_at(SimHour(12), 1), Some(60.0));
        assert_eq!(s.delayed_price_at(SimHour(12), 24), Some(50.0));
        assert_eq!(s.delayed_price_at(SimHour(10), 0), Some(50.0));
    }

    #[test]
    fn five_minute_series_averages_within_hour() {
        let mut prices = vec![10.0; 12];
        prices.extend(vec![20.0; 12]);
        let s =
            PriceSeries::new(HubId::NewYorkNy, MarketKind::RealTimeFiveMinute, SimHour(0), prices);
        assert_eq!(s.len_hours(), 2);
        assert_eq!(s.price_at(SimHour(0)), Some(10.0));
        assert_eq!(s.price_at(SimHour(1)), Some(20.0));
        assert_eq!(s.hourly_prices(), vec![10.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "whole number of hours")]
    fn ragged_five_minute_series_panics() {
        let _ = PriceSeries::new(
            HubId::NewYorkNy,
            MarketKind::RealTimeFiveMinute,
            SimHour(0),
            vec![10.0; 13],
        );
    }

    #[test]
    fn slicing() {
        let s = hourly(HubId::ChicagoIl, SimHour(100), (0..50).map(|i| i as f64).collect());
        let sub = s.slice(HourRange::new(SimHour(110), SimHour(120)));
        assert_eq!(sub.len_hours(), 10);
        assert_eq!(sub.prices[0], 10.0);
        assert_eq!(sub.start, SimHour(110));
        // Disjoint slice is empty.
        let empty = s.slice(HourRange::new(SimHour(500), SimHour(510)));
        assert_eq!(empty.len_hours(), 0);
    }

    #[test]
    fn price_set_validation_and_lookup() {
        let a = hourly(HubId::BostonMa, SimHour(0), vec![50.0, 60.0]);
        let b = hourly(HubId::NewYorkNy, SimHour(0), vec![70.0, 90.0]);
        let set = PriceSet::new(vec![a, b]);
        assert_eq!(set.hubs().len(), 2);
        assert_eq!(set.for_hub(HubId::NewYorkNy).unwrap().prices[1], 90.0);
        assert!(set.for_hub(HubId::ChicagoIl).is_none());
        assert_eq!(set.cheapest_hub_on_average(), Some(HubId::BostonMa));
        assert_eq!(set.range().unwrap().len_hours(), 2);
    }

    #[test]
    #[should_panic(expected = "share a start hour")]
    fn mismatched_series_panics() {
        let a = hourly(HubId::BostonMa, SimHour(0), vec![50.0, 60.0]);
        let b = hourly(HubId::NewYorkNy, SimHour(5), vec![70.0, 90.0]);
        let _ = PriceSet::new(vec![a, b]);
    }

    #[test]
    fn market_kind_metadata() {
        assert_eq!(MarketKind::RealTimeFiveMinute.samples_per_hour(), 12);
        assert_eq!(MarketKind::DayAhead.samples_per_hour(), 1);
        assert!(MarketKind::RealTimeHourly.name().contains("hourly"));
    }
}
