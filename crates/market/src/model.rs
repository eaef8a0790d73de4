//! The stochastic price-process model and its per-hub calibration.
//!
//! # Substitution note
//!
//! The paper works from archived Platts / RTO price data (January 2006 –
//! March 2009), which is proprietary. This module replaces that data source
//! with a generative model whose components are calibrated to the summary
//! statistics the paper itself publishes:
//!
//! * Figure 6 — trimmed mean / standard deviation / kurtosis of hourly
//!   real-time prices for six named hubs;
//! * Figure 7 — heavy-tailed, zero-mean hour-to-hour change distributions;
//! * Figure 8 — intra-RTO correlations mostly above 0.6, inter-RTO
//!   correlations below it, CAISO internally ~0.94;
//! * Figure 3 — the 2008 fuel-price elevation, the 2009 downturn, and the
//!   Pacific Northwest's springtime hydro dip;
//! * Figure 10 — near-zero-mean, high-variance price differentials for
//!   cross-country pairs.
//!
//! The model composes, per hub `h` and hour `t`:
//!
//! ```text
//! price_h(t) = base_h · fuel(t) · seasonal_h(t) · demand_h(t)
//!              + rto_factor_{RTO(h)}(t) + local_factor_h(t)
//!              + spike_h(t) − negative_dip_h(t)
//! ```
//!
//! where `fuel` is a national slow-moving factor, `seasonal` is an annual
//! shape, `demand` is a local-time-of-day/day-of-week shape, the two AR(1)
//! factors provide correlated and idiosyncratic volatility, and the spike
//! term provides the heavy tails characteristic of real-time markets.

use crate::time::SimHour;
use serde::{Deserialize, Serialize};
use wattroute_geo::{hubs, HubId, Rto};

/// Parameters of the national fuel-price factor (shared by all hubs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FuelFactorParams {
    /// Peak relative elevation of the 2008 natural-gas run-up (Figure 3
    /// shows prices elevated by roughly a third in mid-2008).
    pub gas_spike_2008_amplitude: f64,
    /// Relative decline after the late-2008 economic downturn.
    pub downturn_2009_amplitude: f64,
    /// Innovation standard deviation of the slow AR(1) noise on the factor.
    pub noise_sigma: f64,
    /// Autocorrelation of the slow AR(1) noise (close to 1).
    pub noise_rho: f64,
}

impl Default for FuelFactorParams {
    fn default() -> Self {
        Self {
            gas_spike_2008_amplitude: 0.38,
            downturn_2009_amplitude: 0.18,
            noise_sigma: 0.004,
            noise_rho: 0.995,
        }
    }
}

impl FuelFactorParams {
    /// Deterministic part of the fuel factor at a given hour (the stochastic
    /// AR(1) noise is added by the generator).
    pub fn deterministic(&self, hour: SimHour) -> f64 {
        // Hours since epoch expressed in years.
        let years = hour.0 as f64 / 8766.0;
        // Mid-2008 is ~2.5 years after January 2006.
        let gas_bump = self.gas_spike_2008_amplitude * gaussian_bump(years, 2.55, 0.30);
        // The downturn ramps in over late 2008 / 2009 and stays.
        let downturn = self.downturn_2009_amplitude * smooth_step(years, 2.9, 3.15);
        1.0 + gas_bump - downturn
    }
}

fn gaussian_bump(x: f64, center: f64, width: f64) -> f64 {
    (-(x - center) * (x - center) / (2.0 * width * width)).exp()
}

fn smooth_step(x: f64, lo: f64, hi: f64) -> f64 {
    if x <= lo {
        0.0
    } else if x >= hi {
        1.0
    } else {
        let t = (x - lo) / (hi - lo);
        t * t * (3.0 - 2.0 * t)
    }
}

/// Seasonal profile of a hub's prices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SeasonalProfile {
    /// Summer-peaking (most thermal-dominated markets): prices rise with
    /// summer cooling demand and slightly in winter.
    SummerPeaking,
    /// Hydro-dominated Pacific Northwest: a pronounced dip in April/May when
    /// snowmelt fills the reservoirs (visible for MID-C in Figure 3).
    HydroSpringDip,
}

impl SeasonalProfile {
    /// Multiplicative seasonal factor given the fraction of the year
    /// elapsed (0 = January 1st).
    pub fn factor(&self, year_fraction: f64) -> f64 {
        match self {
            SeasonalProfile::SummerPeaking => {
                // Peak around late July (fraction ~0.57), secondary winter bump.
                1.0 + 0.14 * gaussian_bump(year_fraction, 0.57, 0.10)
                    + 0.06 * gaussian_bump(year_fraction, 0.04, 0.06)
                    + 0.06 * gaussian_bump(year_fraction, 0.98, 0.06)
            }
            SeasonalProfile::HydroSpringDip => {
                // April/May dip (fraction ~0.30) when hydro is abundant.
                1.0 - 0.28 * gaussian_bump(year_fraction, 0.30, 0.08)
                    + 0.08 * gaussian_bump(year_fraction, 0.60, 0.10)
            }
        }
    }
}

/// Per-hub parameters of the price process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HubPriceParams {
    /// The hub these parameters describe.
    pub hub: HubId,
    /// Base price level in $/MWh (approximately the long-run mean).
    pub base_price: f64,
    /// Strength of the time-of-day demand swing as a fraction of the base
    /// price (0.5 means the peak-hour component adds up to 50 % of base).
    pub diurnal_amplitude: f64,
    /// Multiplier applied to the demand swing on weekends.
    pub weekend_discount: f64,
    /// Idiosyncratic (hub-local) AR(1) innovation sigma in $/MWh.
    pub local_sigma: f64,
    /// Probability per hour of a price spike during average demand.
    pub spike_rate: f64,
    /// Mean magnitude of a spike in $/MWh (exponentially distributed).
    pub spike_scale: f64,
    /// Probability per low-demand hour of a negative-price dip.
    pub negative_rate: f64,
    /// Seasonal profile.
    pub seasonal: SeasonalProfile,
}

/// Per-RTO parameters shared by all hubs in the region.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RtoParams {
    /// The region.
    pub rto: Rto,
    /// Innovation sigma of the region-wide AR(1) factor in $/MWh.
    pub regional_sigma: f64,
    /// Autocorrelation of the region-wide factor.
    pub regional_rho: f64,
    /// Probability that a spike event is region-wide (congestion affecting
    /// the whole market) rather than hub-local.
    pub shared_spike_fraction: f64,
}

/// Calibrated parameters for every hub and RTO, plus the national factor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarketModel {
    /// National fuel factor parameters.
    pub fuel: FuelFactorParams,
    /// Region-level parameters.
    pub rtos: Vec<RtoParams>,
    /// Hub-level parameters.
    pub hubs: Vec<HubPriceParams>,
    /// Price floor in $/MWh (markets cap how negative prices may go).
    pub price_floor: f64,
    /// Price cap in $/MWh (offer caps; e.g. $1000-$3000 in most RTOs). The
    /// paper observes a $1900 differential spike, so the cap is set high.
    pub price_cap: f64,
}

impl MarketModel {
    /// The default calibration targeting the statistics published in the
    /// paper (see module docs).
    pub fn calibrated() -> Self {
        let rtos = vec![
            RtoParams {
                rto: Rto::IsoNe,
                regional_sigma: 11.0,
                regional_rho: 0.75,
                shared_spike_fraction: 0.5,
            },
            RtoParams {
                rto: Rto::Nyiso,
                regional_sigma: 14.0,
                regional_rho: 0.75,
                shared_spike_fraction: 0.4,
            },
            RtoParams {
                rto: Rto::Pjm,
                regional_sigma: 12.0,
                regional_rho: 0.75,
                shared_spike_fraction: 0.4,
            },
            RtoParams {
                rto: Rto::Miso,
                regional_sigma: 12.0,
                regional_rho: 0.75,
                shared_spike_fraction: 0.5,
            },
            RtoParams {
                rto: Rto::Caiso,
                regional_sigma: 15.0,
                regional_rho: 0.78,
                shared_spike_fraction: 0.85,
            },
            RtoParams {
                rto: Rto::Ercot,
                regional_sigma: 13.0,
                regional_rho: 0.75,
                shared_spike_fraction: 0.6,
            },
            RtoParams {
                rto: Rto::NonMarketNorthwest,
                regional_sigma: 8.0,
                regional_rho: 0.8,
                shared_spike_fraction: 0.5,
            },
        ];

        use HubId::*;
        use SeasonalProfile::*;
        let hub = |hub,
                   base: f64,
                   diurnal: f64,
                   local_sigma: f64,
                   spike_rate: f64,
                   spike_scale: f64,
                   seasonal| HubPriceParams {
            hub,
            base_price: base,
            diurnal_amplitude: diurnal,
            weekend_discount: 0.82,
            local_sigma,
            spike_rate,
            spike_scale,
            negative_rate: 0.002,
            seasonal,
        };

        let hubs = vec![
            // ISO New England — Boston's Figure 6 row: mean 66.5, sigma 25.8, kurtosis 5.7.
            hub(BostonMa, 64.0, 0.42, 5.5, 0.010, 70.0, SummerPeaking),
            hub(PortlandMe, 60.0, 0.40, 6.0, 0.009, 65.0, SummerPeaking),
            hub(HartfordCt, 66.0, 0.42, 6.0, 0.010, 70.0, SummerPeaking),
            hub(ManchesterNh, 62.0, 0.40, 6.0, 0.009, 65.0, SummerPeaking),
            // NYISO — NYC: mean 77.9, sigma 40.3, kurtosis 7.9.
            hub(NewYorkNy, 74.0, 0.55, 9.0, 0.018, 110.0, SummerPeaking),
            hub(AlbanyNy, 66.0, 0.48, 8.0, 0.013, 85.0, SummerPeaking),
            hub(BuffaloNy, 57.0, 0.45, 8.0, 0.011, 75.0, SummerPeaking),
            hub(LongIslandNy, 82.0, 0.58, 10.0, 0.020, 120.0, SummerPeaking),
            hub(PoughkeepsieNy, 68.0, 0.48, 8.0, 0.013, 85.0, SummerPeaking),
            // PJM — Chicago: 40.6 / 26.9 / 4.6; Richmond: 57.8 / 39.2 / 6.6.
            hub(ChicagoIl, 39.0, 0.50, 7.5, 0.010, 80.0, SummerPeaking),
            hub(RichmondVa, 55.0, 0.60, 10.0, 0.016, 110.0, SummerPeaking),
            hub(NewarkNj, 60.0, 0.52, 8.0, 0.013, 90.0, SummerPeaking),
            hub(WashingtonDc, 58.0, 0.55, 8.5, 0.014, 95.0, SummerPeaking),
            hub(BaltimoreMd, 59.0, 0.55, 8.5, 0.014, 95.0, SummerPeaking),
            hub(PittsburghPa, 50.0, 0.48, 7.5, 0.011, 80.0, SummerPeaking),
            hub(ColumbusOh, 46.0, 0.46, 7.5, 0.010, 75.0, SummerPeaking),
            // MISO — Indianapolis: 44.0 / 28.3 / 5.8.
            hub(PeoriaIl, 40.0, 0.52, 9.0, 0.011, 85.0, SummerPeaking),
            hub(MinneapolisMn, 43.0, 0.48, 8.0, 0.010, 75.0, SummerPeaking),
            hub(IndianapolisIn, 42.0, 0.50, 8.5, 0.011, 85.0, SummerPeaking),
            hub(DetroitMi, 45.0, 0.48, 8.0, 0.011, 80.0, SummerPeaking),
            hub(MadisonWi, 42.0, 0.47, 8.0, 0.010, 75.0, SummerPeaking),
            hub(StLouisMo, 41.0, 0.49, 8.5, 0.011, 80.0, SummerPeaking),
            // CAISO — Palo Alto: 54.0 / 34.2 / 11.9; LA–Palo Alto correlation 0.94.
            hub(PaloAltoCa, 52.0, 0.48, 3.0, 0.016, 120.0, SummerPeaking),
            hub(LosAngelesCa, 53.0, 0.50, 3.0, 0.016, 120.0, SummerPeaking),
            hub(FresnoCa, 52.0, 0.49, 3.5, 0.016, 120.0, SummerPeaking),
            // ERCOT — gas-heavy Texas.
            hub(DallasTx, 47.0, 0.55, 8.0, 0.015, 105.0, SummerPeaking),
            hub(AustinTx, 48.0, 0.56, 8.0, 0.015, 105.0, SummerPeaking),
            hub(HoustonTx, 50.0, 0.56, 8.5, 0.016, 110.0, SummerPeaking),
            hub(OdessaTx, 44.0, 0.52, 9.0, 0.014, 95.0, SummerPeaking),
            // Pacific Northwest — hydro-dominated, no hourly market.
            hub(PortlandOr, 52.0, 0.30, 6.0, 0.005, 50.0, HydroSpringDip),
        ];

        Self {
            fuel: FuelFactorParams::default(),
            rtos,
            hubs,
            price_floor: -150.0,
            price_cap: 2500.0,
        }
    }

    /// Parameters for a hub, if it is part of the model.
    pub fn hub_params(&self, hub: HubId) -> Option<&HubPriceParams> {
        self.hubs.iter().find(|p| p.hub == hub)
    }

    /// Parameters for an RTO.
    pub fn rto_params(&self, rto: Rto) -> Option<&RtoParams> {
        self.rtos.iter().find(|p| p.rto == rto)
    }

    /// Remove all hubs except the given subset (useful for faster
    /// simulations over the nine cluster hubs).
    pub fn restricted_to(&self, keep: &[HubId]) -> Self {
        let mut clone = self.clone();
        clone.hubs.retain(|p| keep.contains(&p.hub));
        clone
    }

    /// Hubs included in this model.
    pub fn hub_ids(&self) -> Vec<HubId> {
        self.hubs.iter().map(|p| p.hub).collect()
    }
}

/// The time-of-day / day-of-week demand shape common to all hubs, evaluated
/// in the hub's local time. Returns a multiplicative factor around 1.0.
pub fn demand_factor(params: &HubPriceParams, hour: SimHour) -> f64 {
    let state = hubs::hub(params.hub).state;
    let local_hour = hour.hour_of_day_local(state.utc_offset_hours());
    demand_swing(params, diurnal_shape(local_hour), hour.is_weekend())
}

/// The daily load shape at a local hour of day (0-23), common to all hubs:
/// about 0 at 4am and 1 at 4pm, with an evening bump.
pub(crate) fn diurnal_shape(local_hour: u64) -> f64 {
    let local_hour = local_hour as f64;
    // Smooth double-peaked daily load shape: morning ramp, evening peak.
    let phase = (local_hour - 4.0) / 24.0 * std::f64::consts::TAU;
    let base_shape = 0.5 * (1.0 - phase.cos()); // 0 at ~4am, 1 at ~4pm
    let evening = 0.25 * gaussian_bump(local_hour, 19.0, 2.5);
    (base_shape + evening).min(1.3)
}

/// [`demand_factor`] for a hub whose local hour has the diurnal `shape`,
/// on a weekend or not.
pub(crate) fn demand_swing(params: &HubPriceParams, shape: f64, weekend: bool) -> f64 {
    let weekend_scale = if weekend { params.weekend_discount } else { 1.0 };
    // Centre the swing so the long-run mean stays near 1.0.
    1.0 + params.diurnal_amplitude * weekend_scale * (shape - 0.55)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::HourRange;

    #[test]
    fn calibration_covers_all_thirty_hubs() {
        let m = MarketModel::calibrated();
        assert_eq!(m.hubs.len(), 30);
        for h in wattroute_geo::hubs::all_hubs() {
            assert!(m.hub_params(h.id).is_some(), "missing params for {:?}", h.id);
        }
        for rto in Rto::ALL {
            assert!(m.rto_params(rto).is_some(), "missing params for {rto}");
        }
    }

    #[test]
    fn base_prices_track_figure_6_ordering() {
        let m = MarketModel::calibrated();
        let base = |id| m.hub_params(id).unwrap().base_price;
        // Figure 6 ordering: Chicago < Indianapolis < Palo Alto < Richmond < Boston < NYC.
        assert!(base(HubId::ChicagoIl) < base(HubId::IndianapolisIn) + 5.0);
        assert!(base(HubId::IndianapolisIn) < base(HubId::PaloAltoCa));
        assert!(base(HubId::PaloAltoCa) < base(HubId::RichmondVa));
        assert!(base(HubId::RichmondVa) < base(HubId::BostonMa));
        assert!(base(HubId::BostonMa) < base(HubId::NewYorkNy));
    }

    #[test]
    fn fuel_factor_has_2008_peak_and_2009_decline() {
        let fuel = FuelFactorParams::default();
        let f_2006 = fuel.deterministic(SimHour::from_date(2006, 6, 15));
        let f_2008 = fuel.deterministic(SimHour::from_date(2008, 7, 1));
        let f_2009 = fuel.deterministic(SimHour::from_date(2009, 3, 15));
        assert!(f_2008 > f_2006 * 1.2, "2008 should be elevated: {f_2008} vs {f_2006}");
        assert!(f_2009 < f_2006, "2009 should be depressed: {f_2009} vs {f_2006}");
    }

    #[test]
    fn hydro_profile_dips_in_april() {
        let hydro = SeasonalProfile::HydroSpringDip;
        let april = hydro.factor(0.30);
        let august = hydro.factor(0.62);
        let january = hydro.factor(0.02);
        assert!(april < january, "April dip expected: {april} vs {january}");
        assert!(april < august);
        let summer = SeasonalProfile::SummerPeaking;
        assert!(summer.factor(0.57) > summer.factor(0.30));
    }

    #[test]
    fn demand_factor_peaks_in_local_afternoon() {
        let m = MarketModel::calibrated();
        let params = m.hub_params(HubId::PaloAltoCa).unwrap();
        // 4 PM Pacific = 7 PM Eastern = hour 19 of an epoch weekday.
        let monday = SimHour::from_date(2006, 1, 2);
        let afternoon_pacific = monday.plus_hours(19);
        let night_pacific = monday.plus_hours(7); // 2 AM Pacific
        assert!(demand_factor(params, afternoon_pacific) > demand_factor(params, night_pacific));
    }

    #[test]
    fn weekend_demand_is_discounted() {
        let m = MarketModel::calibrated();
        let params = m.hub_params(HubId::NewYorkNy).unwrap();
        let saturday_noon = SimHour::from_date(2006, 1, 7).plus_hours(17);
        let monday_noon = SimHour::from_date(2006, 1, 9).plus_hours(17);
        assert!(demand_factor(params, saturday_noon) < demand_factor(params, monday_noon));
    }

    #[test]
    fn demand_factor_long_run_mean_near_one() {
        let m = MarketModel::calibrated();
        let params = m.hub_params(HubId::ChicagoIl).unwrap();
        let range = HourRange::new(SimHour(0), SimHour(24 * 28));
        let mean: f64 =
            range.iter().map(|h| demand_factor(params, h)).sum::<f64>() / range.len_hours() as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean demand factor = {mean}");
    }

    #[test]
    fn restricted_model_keeps_only_requested_hubs() {
        let m = MarketModel::calibrated();
        let nine: Vec<HubId> =
            wattroute_geo::hubs::simulation_hubs().iter().map(|h| h.id).collect();
        let r = m.restricted_to(&nine);
        assert_eq!(r.hubs.len(), 9);
        assert!(r.hub_params(HubId::PortlandOr).is_none());
        assert!(r.hub_params(HubId::NewYorkNy).is_some());
    }

    #[test]
    fn caiso_hubs_have_low_local_noise() {
        // Required for the LA / Palo Alto correlation of 0.94 reported in §3.2.
        let m = MarketModel::calibrated();
        let pa = m.hub_params(HubId::PaloAltoCa).unwrap();
        let la = m.hub_params(HubId::LosAngelesCa).unwrap();
        let caiso = m.rto_params(Rto::Caiso).unwrap();
        assert!(pa.local_sigma < caiso.regional_sigma / 3.0);
        assert!(la.local_sigma < caiso.regional_sigma / 3.0);
    }
}
