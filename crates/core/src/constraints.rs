//! The calibrate → constrain → account pipeline (§4, §6.1).
//!
//! The paper's savings figures are measured under a hard rule: the
//! price-conscious router may not raise any cluster's 95th-percentile
//! bandwidth above the level observed under the *original* (baseline)
//! assignment — carriers bill on the 95th percentile of five-minute
//! samples, so exceeding it would trade electricity dollars for bandwidth
//! dollars. That turns every constrained experiment into a two-phase
//! pipeline:
//!
//! 1. **calibrate** — replay the baseline policy once through
//!    [`Scenario::execute`]; its report's per-cluster
//!    [`p95_hits_per_sec`](crate::report::ClusterReport::p95_hits_per_sec)
//!    — the 95th percentile of each cluster's five-minute load series,
//!    read off the engine's exact load runs — are the levels;
//! 2. **constrain** — turn those levels (optionally scaled by a slack
//!    multiplier) into the [`ConstraintSet`] that constrained runs borrow;
//! 3. **account** — price the observed 95th percentiles under a
//!    [`BandwidthTariff`] so reports carry a bandwidth *bill* next to the
//!    electricity bill, and the optimizer's objective can weigh both.
//!
//! [`CalibratedScenario`] packages the pipeline for one [`Scenario`];
//! [`HubBandwidthCaps`] (re-exported here) carries the same calibration
//! across deployments for the placement optimizer.

use crate::report::SimulationReport;
use crate::run::RunOptions;
use crate::scenario::Scenario;
use crate::simulation::SimulationConfig;
use wattroute_geo::HubId;
use wattroute_routing::baseline::AkamaiLikePolicy;
use wattroute_routing::policy::RoutingPolicy;
use wattroute_workload::trace::STEP_SECONDS;

pub use wattroute_routing::constraints::{ConstraintSet, HubBandwidthCaps, OverflowMode};

/// Steps in the 30-day month the tariff prorates against.
const STEPS_PER_MONTH: f64 = 30.0 * 24.0 * 3600.0 / STEP_SECONDS as f64;

/// A 95/5 bandwidth tariff: what a carrier charges per Mbps of
/// 95th-percentile traffic per 30-day month, plus the hits → megabits
/// conversion that maps the workload's hit rates onto wire bandwidth.
///
/// The bill for a run is prorated by its length:
/// `p95_hits/s × Mbit/hit × $/Mbps·month × run_months`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthTariff {
    /// Dollars per Mbps of 95th-percentile bandwidth per 30-day month.
    pub dollars_per_mbps_month: f64,
    /// Megabits transferred per hit (mean object size on the wire).
    pub megabits_per_hit: f64,
}

impl BandwidthTariff {
    /// Build a tariff.
    ///
    /// # Panics
    /// Panics on negative rates.
    pub fn new(dollars_per_mbps_month: f64, megabits_per_hit: f64) -> Self {
        assert!(dollars_per_mbps_month >= 0.0, "tariff must be non-negative");
        assert!(megabits_per_hit >= 0.0, "object size must be non-negative");
        Self { dollars_per_mbps_month, megabits_per_hit }
    }

    /// A paper-era CDN transit price: $10 per Mbps·month at the 95th
    /// percentile, 20 KB (0.16 Mbit) per hit.
    pub fn default_cdn() -> Self {
        Self::new(10.0, 0.16)
    }

    /// The bandwidth bill for one cluster over a run of `steps` five-minute
    /// steps, given its observed 95th-percentile hit rate.
    pub fn bill_dollars(&self, p95_hits_per_sec: f64, steps: usize) -> f64 {
        let p95_mbps = p95_hits_per_sec * self.megabits_per_hit;
        p95_mbps * self.dollars_per_mbps_month * (steps as f64 / STEPS_PER_MONTH)
    }
}

/// A scenario with its baseline calibration pass already run: the baseline
/// report, its per-cluster 95th percentiles as caps, and factories for the
/// constraint sets (positional or hub-keyed) that constrained runs and
/// searches need.
#[derive(Debug, Clone)]
pub struct CalibratedScenario {
    hub_ids: Vec<HubId>,
    baseline: SimulationReport,
    caps: Vec<f64>,
}

impl CalibratedScenario {
    /// Run the calibration pass with the paper's baseline (the Akamai-like
    /// allocation) under the scenario's own configuration.
    pub fn calibrate(scenario: &Scenario) -> Self {
        Self::calibrate_with(scenario, &mut AkamaiLikePolicy::default())
    }

    /// Run the calibration pass with an arbitrary policy — the "original
    /// assignment" whose 95th percentiles become the caps.
    pub fn calibrate_with(scenario: &Scenario, policy: &mut dyn RoutingPolicy) -> Self {
        let baseline = scenario.execute(policy, RunOptions::new());
        let caps = baseline.clusters.iter().map(|c| c.p95_hits_per_sec).collect();
        Self { hub_ids: scenario.clusters.hub_ids(), baseline, caps }
    }

    /// The calibration run's report — the denominator of every
    /// savings-percent figure.
    pub fn baseline(&self) -> &SimulationReport {
        &self.baseline
    }

    /// The per-cluster 95th-percentile caps at multiplier 1.0 (the paper's
    /// "follow original 95/5 constraints" levels): the calibration run's
    /// per-cluster `p95_hits_per_sec`.
    pub fn p95_caps(&self) -> &[f64] {
        &self.caps
    }

    /// Derive the constraint set for a constrained run: `base` with its
    /// bandwidth caps replaced by the calibrated 95th percentiles scaled
    /// by `cap_multiplier`. `1.0` is the paper's regime; larger
    /// multipliers model bandwidth slack; a non-finite multiplier removes
    /// the caps — the ∞ point of a savings-vs-slack curve *is* the
    /// unconstrained run.
    pub fn constraints(&self, base: &ConstraintSet, cap_multiplier: f64) -> ConstraintSet {
        base.clone()
            .with_bandwidth_caps(self.caps.clone())
            .with_bandwidth_caps_scaled(cap_multiplier)
    }

    /// A full simulation configuration for a constrained run: `base` with
    /// its constraint set rewritten by [`Self::constraints`]. With a
    /// non-finite multiplier (and a bandwidth-relaxed `base`) the result
    /// equals `base`, so the ∞ point reproduces the unconstrained run
    /// byte-for-byte.
    pub fn constrained_config(
        &self,
        base: &SimulationConfig,
        cap_multiplier: f64,
    ) -> SimulationConfig {
        let mut config = base.clone();
        config.constraints = self.constraints(&base.constraints, cap_multiplier);
        config
    }

    /// The calibrated caps keyed by market hub (scaled by
    /// `cap_multiplier`), for constraining deployments *other* than the
    /// calibrated one — the placement optimizer resolves these against
    /// every candidate it visits.
    pub fn hub_caps(&self, cap_multiplier: f64) -> HubBandwidthCaps {
        HubBandwidthCaps::new(self.hub_ids.iter().copied().zip(self.caps.iter().copied()).collect())
            .scaled(cap_multiplier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DemandSlice, PriceSlice, SimulationEngine};
    use crate::simulation::Simulation;
    use wattroute_market::time::{HourRange, SimHour};
    use wattroute_routing::price_conscious::PriceConsciousPolicy;
    use wattroute_workload::bandwidth::percentile_95;

    fn short_scenario() -> Scenario {
        let start = SimHour::from_date(2008, 12, 19);
        Scenario::custom_window(13, HourRange::new(start, start.plus_hours(2 * 24)))
    }

    #[test]
    fn tariff_prorates_by_run_length() {
        let tariff = BandwidthTariff::new(10.0, 0.16);
        // 1000 hits/s × 0.16 Mbit = 160 Mbps; one month = $1600.
        let month_steps = 30 * 24 * 12;
        assert!((tariff.bill_dollars(1000.0, month_steps) - 1600.0).abs() < 1e-9);
        // Half the steps, half the bill.
        assert!((tariff.bill_dollars(1000.0, month_steps / 2) - 800.0).abs() < 1e-9);
        assert_eq!(tariff.bill_dollars(0.0, month_steps), 0.0);
        let _ = BandwidthTariff::default_cdn();
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_tariff_rejected() {
        let _ = BandwidthTariff::new(-1.0, 0.16);
    }

    #[test]
    fn calibration_matches_the_baseline_reports_p95() {
        // The caps are the calibration report's p95 levels. Pin them, bit
        // for bit, to the 95th percentile of each cluster's per-step load
        // series in an engine ticked once per step.
        let s = short_scenario();
        let capped = CalibratedScenario::calibrate(&s).constrained_config(&s.config, 1.0);
        for config in [s.config.clone(), s.config.clone().with_reallocation_interval(5), capped] {
            let mut scenario = s.clone();
            scenario.config = config.clone();
            let calibrated = CalibratedScenario::calibrate(&scenario);
            assert_eq!(calibrated.baseline().policy, "akamai-like");

            let sim = Simulation::new(&s.clusters, &s.trace, &s.prices, config.clone());
            let table = sim.price_table();
            let mut engine = SimulationEngine::new(&s.clusters, &s.trace.states, config)
                .with_clamped_lead_hours(table.clamped_lead_hours());
            let mut policy = AkamaiLikePolicy::default();
            for (i, step) in s.trace.steps().iter().enumerate() {
                let hour = s.trace.step_hour(i);
                let prices = PriceSlice::new(
                    hour,
                    table.delayed_at(hour).expect("table covers the trace"),
                    table.billing_at(hour).expect("table covers the trace"),
                );
                engine.tick(&mut policy, prices, DemandSlice::new(&step.us_demand));
            }
            assert_eq!(&engine.report(), calibrated.baseline());
            let ticked: Vec<u64> = engine
                .into_load_series()
                .iter()
                .map(|series| percentile_95(series).expect("a non-empty series").to_bits())
                .collect();
            let caps: Vec<u64> = calibrated.p95_caps().iter().map(|c| c.to_bits()).collect();
            assert_eq!(caps, ticked, "caps != p95 of the ticked series");
        }
    }

    #[test]
    fn constrained_config_scales_caps_and_infinite_multiplier_is_identity() {
        let s = short_scenario();
        let calibrated = CalibratedScenario::calibrate(&s);

        let follow = calibrated.constrained_config(&s.config, 1.0);
        assert_eq!(follow.constraints.bandwidth_caps(), Some(calibrated.p95_caps()));

        let slack = calibrated.constrained_config(&s.config, 1.5);
        let caps = slack.constraints.bandwidth_caps().unwrap();
        for (got, base) in caps.iter().zip(calibrated.p95_caps()) {
            assert!((got - base * 1.5).abs() < 1e-9);
        }

        // The ∞ point is *the* unconstrained configuration.
        assert_eq!(calibrated.constrained_config(&s.config, f64::INFINITY), s.config);
    }

    #[test]
    fn constrained_run_respects_caps_and_infinity_matches_unconstrained_bitwise() {
        let s = short_scenario();
        let calibrated = CalibratedScenario::calibrate(&s);
        let mut optimizer = PriceConsciousPolicy::with_distance_threshold(2500.0);

        let follow = s.execute(
            &mut optimizer,
            RunOptions::new().with_config(calibrated.constrained_config(&s.config, 1.0)),
        );
        assert!(follow.bandwidth_constrained);
        assert!(follow.respects_p95_caps(calibrated.p95_caps(), 0.05));

        let infinite = s.execute(
            &mut optimizer,
            RunOptions::new().with_config(calibrated.constrained_config(&s.config, f64::INFINITY)),
        );
        let relaxed = s.execute(&mut optimizer, RunOptions::new());
        assert_eq!(infinite, relaxed, "the ∞ point must reproduce the unconstrained run exactly");
        assert!(
            follow.total_cost_dollars >= relaxed.total_cost_dollars - 1e-6,
            "following 95/5 cannot be cheaper than ignoring it"
        );
    }

    #[test]
    fn concentrating_calibrations_with_zero_caps_behave_at_both_extremes() {
        // A static-cheapest calibration leaves most clusters unused, so
        // their calibrated caps are 0.0 — the two historical traps are
        // 0 × ∞ = NaN at infinite slack, and idle clusters counted as
        // "binding" every step at multiplier 1.0.
        let s = short_scenario();
        let mut policy = s.static_cheapest_policy();
        let calibrated = CalibratedScenario::calibrate_with(&s, &mut policy);
        assert!(calibrated.p95_caps().contains(&0.0), "calibration must concentrate");

        // Infinite slack relaxes everything, positionally and hub-keyed.
        assert_eq!(calibrated.constrained_config(&s.config, f64::INFINITY), s.config);
        let by_hub = calibrated.hub_caps(f64::INFINITY);
        let relaxed = by_hub.apply(&s.clusters, &s.config.constraints);
        assert!(!relaxed.is_bandwidth_constrained());

        // At 1.0× with a tariff, a cluster that served nothing has a zero
        // cap but zero binding hours — the constraint never shaped it.
        let config = calibrated
            .constrained_config(&s.config, 1.0)
            .with_bandwidth_tariff(BandwidthTariff::default_cdn());
        let report =
            s.execute(&mut s.static_cheapest_policy(), RunOptions::new().with_config(config));
        let idle: Vec<_> = report.clusters.iter().filter(|c| c.total_hits == 0.0).collect();
        assert!(!idle.is_empty(), "the concentrating policy must leave idle clusters");
        for cluster in idle {
            assert_eq!(cluster.bandwidth_cap_hits_per_sec, Some(0.0));
            assert_eq!(
                cluster.bandwidth_binding_hours, 0.0,
                "idle cluster {} must not count as binding",
                cluster.label
            );
        }
    }

    #[test]
    fn hub_caps_resolve_the_calibrated_deployment_to_its_own_caps() {
        let s = short_scenario();
        let calibrated = CalibratedScenario::calibrate(&s);
        let by_hub = calibrated.hub_caps(1.0);
        assert_eq!(by_hub.resolve(&s.clusters), calibrated.p95_caps());
        let scaled = calibrated.hub_caps(2.0);
        for (a, b) in scaled.resolve(&s.clusters).iter().zip(calibrated.p95_caps()) {
            assert!((a - 2.0 * b).abs() < 1e-9);
        }
    }
}
