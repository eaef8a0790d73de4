//! Seeded generation of price series from the calibrated market model.
//!
//! The generator is deterministic given `(model, seed, range)`, so every
//! experiment in the workspace can reproduce exactly the same "historical"
//! price data set without shipping any proprietary data.

use crate::model::{demand_swing, diurnal_shape, HubPriceParams, MarketModel, SeasonalProfile};
use crate::rng::{exponential, normal, Ar1};
#[cfg(test)]
use crate::time::SimHour;
use crate::time::{HourRange, STEPS_PER_HOUR_5MIN};
use crate::types::{MarketKind, PriceSeries, PriceSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wattroute_geo::{hubs, HubId, Rto};

/// Derive the seed of Monte Carlo path `path` from one master seed.
///
/// The mapping is the canonical SplitMix64 stream seeded at `master_seed`:
/// path `k` gets the finalizer of `master_seed + (k + 1) × golden`, i.e.
/// the stream's `k`-th output in closed form. Path seeds are therefore a
/// well-mixed, collision-free stream — path `k` gets the same seed
/// whatever order (or worker thread) draws it — and nearby master seeds or
/// path indices do not produce correlated generator streams the way
/// `master ^ k` (or a bare `master + k`, whose adjacent-master streams
/// coincide shifted by one) would. This is the contract the Monte Carlo
/// engine's determinism rests on: a path's price series is a pure function
/// of `(model, master_seed, path, range)`.
pub fn path_seed(master_seed: u64, path: u64) -> u64 {
    let mut z = master_seed.wrapping_add(path.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic, seeded price-series generator.
#[derive(Debug, Clone)]
pub struct PriceGenerator {
    model: MarketModel,
    seed: u64,
}

impl PriceGenerator {
    /// Create a generator from a market model and seed.
    pub fn new(model: MarketModel, seed: u64) -> Self {
        Self { model, seed }
    }

    /// Convenience constructor: the default calibration restricted to the
    /// nine simulation hubs (the deployment used in most of the paper's
    /// simulations).
    pub fn nine_cluster_default(seed: u64) -> Self {
        let nine: Vec<HubId> = hubs::simulation_hubs().iter().map(|h| h.id).collect();
        Self::new(MarketModel::calibrated().restricted_to(&nine), seed)
    }

    /// The underlying model.
    pub fn model(&self) -> &MarketModel {
        &self.model
    }

    /// The seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Replace the seed in place, keeping the (often large) calibrated
    /// model. A reseeded generator is indistinguishable from a freshly
    /// constructed one: the Monte Carlo engine holds one generator per
    /// worker and reseeds it with [`path_seed`] for every path it draws,
    /// so drawing thousands of paths clones the model once, not per path.
    pub fn reseed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// Generate hourly **real-time** prices for every hub in the model over
    /// the given range. This is the primary data set (§3.1: "we focus
    /// exclusively on the RT market ... restrict ourselves to hourly
    /// prices").
    pub fn realtime_hourly(&self, range: HourRange) -> PriceSet {
        self.generate_hourly(range, Product::RealTime)
    }

    /// Generate hourly **day-ahead** prices: smoother, based on expected
    /// rather than actual conditions, with slightly higher average level
    /// (Figures 4 and 5).
    pub fn day_ahead(&self, range: HourRange) -> PriceSet {
        self.generate_hourly(range, Product::DayAhead)
    }

    /// Generate the five-minute real-time series for a single hub. The
    /// twelve intra-hour samples average to (approximately) the hourly RT
    /// price but are more volatile, as in Figure 4.
    pub fn realtime_5min(&self, hub: HubId, range: HourRange) -> Option<PriceSeries> {
        let hourly_set = self.realtime_hourly(range);
        let hourly = hourly_set.for_hub(hub)?;
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5A5A_0000 ^ hub_tag(hub));
        let mut noise = Ar1::new(0.6, 6.0);
        noise.warm_up(&mut rng, 32);
        let mut prices = Vec::with_capacity(hourly.prices.len() * STEPS_PER_HOUR_5MIN as usize);
        for &hour_price in &hourly.prices {
            // Generate 12 deviations and recentre them so the hour's mean is
            // preserved, then add an extra chance of a short-lived spike.
            let mut devs: Vec<f64> =
                (0..STEPS_PER_HOUR_5MIN).map(|_| noise.step(&mut rng)).collect();
            let mean_dev = devs.iter().sum::<f64>() / devs.len() as f64;
            for d in &mut devs {
                *d -= mean_dev;
            }
            if rng.gen::<f64>() < 0.03 {
                let idx = rng.gen_range(0..devs.len());
                devs[idx] += exponential(&mut rng, 40.0);
            }
            for d in devs {
                prices.push((hour_price + d).clamp(self.model.price_floor, self.model.price_cap));
            }
        }
        Some(PriceSeries::new(hub, MarketKind::RealTimeFiveMinute, range.start, prices))
    }

    fn generate_hourly(&self, range: HourRange, product: Product) -> PriceSet {
        let salt = match product {
            Product::RealTime => 0x11u64,
            Product::DayAhead => 0x22u64,
        };
        let mut rng = StdRng::seed_from_u64(self.seed ^ (salt << 32));

        // National fuel noise (shared by all hubs).
        let mut fuel_noise = Ar1::new(self.model.fuel.noise_rho, self.model.fuel.noise_sigma);
        fuel_noise.warm_up(&mut rng, 512);

        // One regional factor per RTO present in the model.
        let rtos: Vec<Rto> = {
            let mut v: Vec<Rto> = self.model.hubs.iter().map(|h| hubs::hub(h.hub).rto).collect();
            v.sort();
            v.dedup();
            v
        };
        let rto_params: Vec<_> = rtos
            .iter()
            .map(|rto| self.model.rto_params(*rto).expect("rto params present"))
            .collect();
        let mut regional: Vec<Ar1> = rto_params
            .iter()
            .map(|p| {
                let sigma = match product {
                    Product::RealTime => p.regional_sigma,
                    // The day-ahead market clears on expectations; its
                    // regional volatility is noticeably lower.
                    Product::DayAhead => p.regional_sigma * 0.55,
                };
                let mut ar = Ar1::new(p.regional_rho, sigma);
                ar.warm_up(&mut rng, 128);
                ar
            })
            .collect();
        // Region-wide congestion spike events. The shared-spike rate
        // scales with each RTO's `shared_spike_fraction`; hubs in RTOs
        // with a high fraction (e.g. CAISO) see most of their spikes
        // arrive as region-wide events, which is what couples LA and
        // Palo Alto so tightly (§3.2).
        let base_rate = match product {
            Product::RealTime => 0.040,
            Product::DayAhead => 0.004,
        };
        let shared_spike_rates: Vec<f64> =
            rto_params.iter().map(|p| base_rate * p.shared_spike_fraction).collect();

        // One idiosyncratic factor per hub.
        let mut local: Vec<Ar1> = self
            .model
            .hubs
            .iter()
            .map(|h| {
                let sigma = match product {
                    Product::RealTime => h.local_sigma,
                    Product::DayAhead => h.local_sigma * 0.5,
                };
                let mut ar = Ar1::new(0.55, sigma);
                ar.warm_up(&mut rng, 64);
                ar
            })
            .collect();

        // What each hub reads every hour, looked up once: its RTO's slot,
        // its time zone and its seasonal profile's slot.
        let mut profiles: Vec<SeasonalProfile> = Vec::new();
        let hub_slots: Vec<HubSlots> = self
            .model
            .hubs
            .iter()
            .map(|params| {
                let hub = hubs::hub(params.hub);
                let profile =
                    profiles.iter().position(|p| *p == params.seasonal).unwrap_or_else(|| {
                        profiles.push(params.seasonal);
                        profiles.len() - 1
                    });
                HubSlots {
                    rto: rtos.iter().position(|r| *r == hub.rto).expect("rto present"),
                    utc_offset_hours: hub.state.utc_offset_hours(),
                    profile,
                }
            })
            .collect();
        let diurnal: [f64; 24] = std::array::from_fn(|local_hour| diurnal_shape(local_hour as u64));

        let n_hours = range.len_hours() as usize;
        // One buffer of the range's length per hub (`vec![v; n]` would
        // clone `v` without its capacity, leaving every hub but the last
        // to grow by doubling).
        let mut per_hub: Vec<Vec<f64>> =
            self.model.hubs.iter().map(|_| Vec::with_capacity(n_hours)).collect();
        let mut seasonal = vec![0.0; profiles.len()];
        let mut regional_values = Vec::with_capacity(rtos.len());
        let mut shared_spikes = Vec::with_capacity(rtos.len());

        for hour in range.iter() {
            let year_fraction = hour.year_fraction();
            for (factor, profile) in seasonal.iter_mut().zip(&profiles) {
                *factor = profile.factor(year_fraction);
            }
            let weekend = hour.is_weekend();
            let fuel = self.model.fuel.deterministic(hour) + fuel_noise.step(&mut rng);
            // Advance shared regional factors once per hour.
            regional_values.clear();
            regional_values.extend(regional.iter_mut().map(|ar| ar.step(&mut rng)));
            shared_spikes.clear();
            shared_spikes.extend(shared_spike_rates.iter().map(|&rate| {
                if rng.gen::<f64>() < rate {
                    exponential(&mut rng, 60.0)
                } else {
                    0.0
                }
            }));

            for (i, (params, slots)) in self.model.hubs.iter().zip(&hub_slots).enumerate() {
                let shape = diurnal[hour.hour_of_day_local(slots.utc_offset_hours) as usize];
                let demand = demand_swing(params, shape, weekend);
                let deterministic = params.base_price * fuel * seasonal[slots.profile] * demand;

                let rto_idx = slots.rto;
                let mut price = deterministic + regional_values[rto_idx] + local[i].step(&mut rng);

                match product {
                    Product::RealTime => {
                        price += self.spike_term(
                            &mut rng,
                            params,
                            demand,
                            shared_spikes[rto_idx],
                            rto_params[rto_idx].shared_spike_fraction,
                        );
                        price -= self.negative_dip(&mut rng, params, demand);
                    }
                    Product::DayAhead => {
                        // Day-ahead prices incorporate a small risk premium
                        // and almost never spike (§2.2, Figure 5: higher
                        // average, lower short-term volatility).
                        price += 2.0 + normal(&mut rng, 0.0, 1.5);
                        price += 0.15 * shared_spikes[rto_idx];
                    }
                }

                // Soft floor: real-time prices rarely linger near zero.
                // Compress the region below $5/MWh so ordinary Gaussian
                // factor draws do not produce frequent negative prices,
                // while the explicit negative-dip events still can (§2.2).
                if price < 5.0 {
                    price = 5.0 + (price - 5.0) * 0.3;
                }

                per_hub[i].push(price.clamp(self.model.price_floor, self.model.price_cap));
            }
        }

        let kind = match product {
            Product::RealTime => MarketKind::RealTimeHourly,
            Product::DayAhead => MarketKind::DayAhead,
        };
        let series = self
            .model
            .hubs
            .iter()
            .zip(per_hub)
            .map(|(params, prices)| PriceSeries::new(params.hub, kind, range.start, prices))
            .collect();
        PriceSet::new(series)
    }

    fn spike_term<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        params: &HubPriceParams,
        demand: f64,
        shared_spike: f64,
        shared_fraction: f64,
    ) -> f64 {
        // Spikes are more likely when demand is high (scarcity pricing).
        // The hub's spike budget is split between hub-local events and
        // region-wide congestion events according to `shared_fraction`.
        let demand_boost = (demand - 0.85).max(0.0) * 3.0;
        let local_rate = params.spike_rate * (1.0 - shared_fraction) * (1.0 + demand_boost);
        let mut spike = 0.0;
        if rng.gen::<f64>() < local_rate {
            spike += exponential(rng, params.spike_scale);
        }
        // Regional congestion events hit every hub in the region, scaled by
        // how exposed the hub is (approximated by its spike scale).
        spike += shared_spike * (params.spike_scale / 100.0);
        spike
    }

    fn negative_dip<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        params: &HubPriceParams,
        demand: f64,
    ) -> f64 {
        // Negative prices occur in low-demand hours when inflexible base
        // load exceeds demand (§2.2 "negative prices can show up for brief
        // periods").
        if demand < 0.88 && rng.gen::<f64>() < params.negative_rate {
            exponential(rng, 55.0)
        } else {
            0.0
        }
    }
}

/// A hub's per-hour lookups, resolved once per generated range.
struct HubSlots {
    /// Index of the hub's RTO among the model's RTOs.
    rto: usize,
    /// The hub's time zone, for its local hour of day.
    utc_offset_hours: i8,
    /// Index of the hub's seasonal profile among the model's distinct ones.
    profile: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Product {
    RealTime,
    DayAhead,
}

fn hub_tag(hub: HubId) -> u64 {
    // Stable per-hub salt derived from the discriminant order.
    hubs::all_hubs()
        .iter()
        .position(|h| h.id == hub)
        .map(|p| p as u64 + 1)
        .unwrap_or(0)
        .wrapping_mul(0x9E37_79B9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wattroute_stats as stats;

    fn short_range() -> HourRange {
        // Eight weeks starting March 2006 — long enough for stable moments,
        // short enough to keep the test fast.
        let start = SimHour::from_date(2006, 3, 1);
        HourRange::new(start, start.plus_hours(8 * 7 * 24))
    }

    #[test]
    fn reseeding_matches_fresh_construction() {
        let r = HourRange::new(SimHour(0), SimHour(48));
        let mut recycled = PriceGenerator::nine_cluster_default(1);
        for seed in [7u64, 0, u64::MAX, 0xDEAD_BEEF] {
            recycled.reseed(seed);
            assert_eq!(recycled.seed(), seed);
            assert_eq!(
                recycled.realtime_hourly(r),
                PriceGenerator::nine_cluster_default(seed).realtime_hourly(r),
            );
        }
    }

    #[test]
    fn path_seed_stream_is_stable_and_well_mixed() {
        // Pin the stream so it can never silently change (every Monte
        // Carlo golden depends on it). path_seed(0, 0) is the first output
        // of the reference SplitMix64 sequence for seed 0.
        assert_eq!(path_seed(0, 0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(path_seed(2009, 0), 0x1367_2694_7f5f_7f58);
        assert_eq!(path_seed(2009, 1), 0xa4ad_926e_8612_7a82);
        // Different masters, shifted paths: distinct streams (a bare
        // `master + path` sum would make these coincide).
        assert_ne!(path_seed(0, 1), path_seed(1, 0));
        // No collisions and no trivial structure over a realistic fan-out.
        let seeds: Vec<u64> = (0..4096).map(|k| path_seed(2009, k)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "path seeds must be collision-free");
        // Consecutive seeds differ in many bits (a ^ k scheme would not).
        let weak = seeds.windows(2).filter(|w| (w[0] ^ w[1]).count_ones() < 8).count();
        assert_eq!(weak, 0, "consecutive path seeds are too similar");
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let g1 = PriceGenerator::nine_cluster_default(7);
        let g2 = PriceGenerator::nine_cluster_default(7);
        let r = short_range();
        assert_eq!(g1.realtime_hourly(r), g2.realtime_hourly(r));
        let g3 = PriceGenerator::nine_cluster_default(8);
        assert_ne!(g1.realtime_hourly(r), g3.realtime_hourly(r));
    }

    #[test]
    fn all_model_hubs_get_series_of_equal_length() {
        let g = PriceGenerator::new(MarketModel::calibrated(), 3);
        let r = HourRange::new(SimHour(0), SimHour(24 * 14));
        let set = g.realtime_hourly(r);
        assert_eq!(set.series.len(), 30);
        for s in &set.series {
            assert_eq!(s.len_hours(), 24 * 14);
            assert!(s.prices.iter().all(|p| p.is_finite()));
        }
    }

    #[test]
    fn prices_respect_floor_and_cap() {
        let g = PriceGenerator::nine_cluster_default(11);
        let set = g.realtime_hourly(short_range());
        let model = g.model();
        for s in &set.series {
            for &p in &s.prices {
                assert!(p >= model.price_floor && p <= model.price_cap);
            }
        }
    }

    #[test]
    fn mean_prices_are_in_calibrated_ballpark() {
        let g = PriceGenerator::nine_cluster_default(5);
        let set = g.realtime_hourly(short_range());
        for s in &set.series {
            let params = g.model().hub_params(s.hub).unwrap();
            let mean = s.mean().unwrap();
            assert!(
                (mean - params.base_price).abs() < params.base_price * 0.35,
                "{:?}: mean {mean} too far from base {}",
                s.hub,
                params.base_price
            );
        }
    }

    #[test]
    fn nyc_is_more_expensive_than_chicago_on_average() {
        let g = PriceGenerator::nine_cluster_default(13);
        let set = g.realtime_hourly(short_range());
        let nyc = set.for_hub(HubId::NewYorkNy).unwrap().mean().unwrap();
        let chi = set.for_hub(HubId::ChicagoIl).unwrap().mean().unwrap();
        assert!(nyc > chi + 10.0, "NYC {nyc} should exceed Chicago {chi}");
    }

    #[test]
    fn hourly_changes_are_heavy_tailed() {
        // Figure 7: hour-to-hour changes are zero-mean, Gaussian-like with
        // very long tails (kurtosis >> 3).
        let g = PriceGenerator::nine_cluster_default(17);
        let set = g.realtime_hourly(short_range());
        let prices = &set.for_hub(HubId::PaloAltoCa).unwrap().prices;
        let diffs = stats::diff_series(prices);
        let mean = stats::mean(&diffs).unwrap();
        let kurt = stats::kurtosis(&diffs).unwrap();
        assert!(mean.abs() < 2.0, "hourly changes should be near zero-mean, got {mean}");
        assert!(kurt > 4.0, "hourly changes should be heavy-tailed, kurtosis {kurt}");
    }

    #[test]
    fn day_ahead_is_smoother_than_real_time() {
        // Figure 5: at short windows the RT market has a larger standard
        // deviation than the day-ahead market.
        let g = PriceGenerator::nine_cluster_default(23);
        let r = short_range();
        let rt = g.realtime_hourly(r);
        let da = g.day_ahead(r);
        let rt_diffs = stats::diff_series(&rt.for_hub(HubId::NewYorkNy).unwrap().prices);
        let da_diffs = stats::diff_series(&da.for_hub(HubId::NewYorkNy).unwrap().prices);
        let rt_sd = stats::std_dev(&rt_diffs).unwrap();
        let da_sd = stats::std_dev(&da_diffs).unwrap();
        assert!(
            da_sd < rt_sd * 0.8,
            "day-ahead hour-to-hour volatility {da_sd} should be well below real-time {rt_sd}"
        );
    }

    #[test]
    fn five_minute_series_tracks_hourly_mean() {
        let g = PriceGenerator::nine_cluster_default(29);
        let start = SimHour::from_date(2009, 2, 10);
        let r = HourRange::new(start, start.plus_hours(48));
        let five = g.realtime_5min(HubId::NewYorkNy, r).unwrap();
        let hourly = g.realtime_hourly(r);
        let hourly_nyc = hourly.for_hub(HubId::NewYorkNy).unwrap();
        assert_eq!(five.prices.len(), 48 * 12);
        // Hour-averaged 5-minute prices should be close to the hourly price.
        for (h, avg) in five.hourly_prices().iter().enumerate() {
            let target = hourly_nyc.prices[h];
            assert!((avg - target).abs() < 20.0, "hour {h}: {avg} vs {target}");
        }
        // And the 5-minute samples should be more volatile than their means.
        let sd_5min = stats::std_dev(&five.prices).unwrap();
        let sd_hourly = stats::std_dev(&hourly_nyc.prices).unwrap();
        assert!(sd_5min >= sd_hourly * 0.95);
    }

    #[test]
    fn unknown_hub_returns_none_for_5min() {
        let g = PriceGenerator::nine_cluster_default(31);
        let r = HourRange::new(SimHour(0), SimHour(24));
        assert!(g.realtime_5min(HubId::PortlandOr, r).is_none());
    }

    #[test]
    fn occasional_negative_prices_occur_over_long_ranges() {
        // §2.2: "negative prices can show up for brief periods".
        let model =
            MarketModel::calibrated().restricted_to(&[HubId::MinneapolisMn, HubId::PeoriaIl]);
        let g = PriceGenerator::new(model, 37);
        let start = SimHour::from_date(2006, 1, 1);
        let r = HourRange::new(start, start.plus_hours(365 * 24));
        let set = g.realtime_hourly(r);
        let negatives: usize =
            set.series.iter().map(|s| s.prices.iter().filter(|&&p| p < 0.0).count()).sum();
        assert!(negatives > 0, "expected at least one negative-price hour in a year");
        // But they must stay rare.
        let total: usize = set.series.iter().map(|s| s.prices.len()).sum();
        assert!((negatives as f64) < 0.01 * total as f64);
    }
}
