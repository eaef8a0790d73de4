//! Pre-packaged scenarios: the paper's two main simulation setups plus
//! helpers to run and compare policies on them.
//!
//! * [`Scenario::akamai_24_day`] — the nine-cluster deployment over the
//!   24-day turn-of-2008/2009 traffic window (§6.2);
//! * [`Scenario::synthetic_39_month`] — the same deployment over the full
//!   January 2006 – March 2009 price history with the weekly-profile
//!   synthetic workload (§6.3).

use crate::report::{PolicyComparison, SimulationReport};
use crate::run::RunOptions;
use crate::simulation::{Simulation, SimulationConfig};
use wattroute_energy::model::EnergyModelParams;
use wattroute_market::generator::PriceGenerator;
use wattroute_market::time::HourRange;
use wattroute_market::types::PriceSet;
use wattroute_routing::baseline::{AkamaiLikePolicy, StaticCheapestPolicy};
use wattroute_routing::policy::RoutingPolicy;
use wattroute_routing::price_conscious::PriceConsciousPolicy;
use wattroute_workload::derive::WeeklyProfile;
use wattroute_workload::trace::Trace;
use wattroute_workload::{ClusterSet, SyntheticWorkloadConfig};

/// A fully materialised simulation scenario: deployment, traffic, prices and
/// default configuration.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The deployment routed over.
    pub clusters: ClusterSet,
    /// The traffic trace.
    pub trace: Trace,
    /// Hourly real-time prices for every cluster hub.
    pub prices: PriceSet,
    /// Default simulation configuration (energy model, delay, ...).
    pub config: SimulationConfig,
}

impl Scenario {
    /// The 24-day scenario of §6.2: nine Akamai-like clusters, synthetic
    /// turn-of-year traffic, hourly real-time prices.
    pub fn akamai_24_day(seed: u64) -> Self {
        let clusters = ClusterSet::akamai_like_nine();
        let range = HourRange::akamai_24_days();
        let trace = SyntheticWorkloadConfig { seed, ..Default::default() }.generate(range);
        let prices = PriceGenerator::nine_cluster_default(seed).realtime_hourly(range);
        Self { clusters, trace, prices, config: SimulationConfig::default() }
    }

    /// A scenario over an arbitrary window, useful for tests and ablations.
    pub fn custom_window(seed: u64, range: HourRange) -> Self {
        let clusters = ClusterSet::akamai_like_nine();
        let trace = SyntheticWorkloadConfig { seed, ..Default::default() }.generate(range);
        let prices = PriceGenerator::nine_cluster_default(seed).realtime_hourly(range);
        Self { clusters, trace, prices, config: SimulationConfig::default() }
    }

    /// The 39-month scenario of §6.3: the 24-day workload reduced to a
    /// weekly profile (§6.1) and replayed over January 2006 – March 2009.
    /// Routing is re-decided hourly, which is exact because the replayed
    /// demand is constant within each hour.
    pub fn synthetic_39_month(seed: u64) -> Self {
        Self::synthetic_over(seed, HourRange::paper_39_months())
    }

    /// The weekly-profile synthetic workload replayed over an arbitrary
    /// range (used to keep tests fast while the figure binaries and
    /// wattbench run the full 39 months).
    pub fn synthetic_over(seed: u64, range: HourRange) -> Self {
        let clusters = ClusterSet::akamai_like_nine();
        let base = SyntheticWorkloadConfig { seed, ..Default::default() }
            .generate(HourRange::akamai_24_days());
        let profile =
            WeeklyProfile::from_trace(&base).expect("24-day trace covers every hour-of-week");
        let trace = profile.replay(range);
        let prices = PriceGenerator::nine_cluster_default(seed).realtime_hourly(range);
        let config = SimulationConfig::default().with_reallocation_interval(12);
        Self { clusters, trace, prices, config }
    }

    /// Replace the energy model in the default configuration.
    pub fn with_energy(mut self, energy: EnergyModelParams) -> Self {
        self.config = self.config.with_energy(energy);
        self
    }

    /// Replace the reaction delay in the default configuration.
    pub fn with_reaction_delay(mut self, hours: u64) -> Self {
        self.config = self.config.with_reaction_delay(hours);
        self
    }

    /// Run an arbitrary policy over this scenario.
    ///
    /// Honoured option: [`RunOptions::with_config`] (replacing the
    /// scenario's default configuration for this run). An artifact cache
    /// belongs to the sweep layer and panics here (see [`crate::run`]).
    pub fn execute(
        &self,
        policy: &mut dyn RoutingPolicy,
        options: RunOptions<'_>,
    ) -> SimulationReport {
        let RunOptions { config, artifacts } = options;
        assert!(
            artifacts.is_none(),
            "RunOptions::reuse_artifacts applies to scenario sweeps; \
             a single scenario run compiles its own price table"
        );
        let config = config.unwrap_or_else(|| self.config.clone());
        Simulation::new(&self.clusters, &self.trace, &self.prices, config).execute(policy)
    }

    /// The Akamai-like baseline report for this scenario (the denominator of
    /// every normalised-cost figure).
    pub fn baseline_report(&self) -> SimulationReport {
        self.execute(&mut AkamaiLikePolicy::default(), RunOptions::new())
    }

    /// Per-cluster 95/5 ceilings observed under the baseline allocation —
    /// the "original 95/5 constraints" of Figures 15, 16 and 18.
    pub fn bandwidth_caps_from_baseline(&self) -> Vec<f64> {
        self.baseline_report().clusters.iter().map(|c| c.p95_hits_per_sec).collect()
    }

    /// Long-run mean price per cluster (for the static cheapest-hub policy).
    pub fn mean_prices(&self) -> Vec<f64> {
        self.clusters
            .hub_ids()
            .iter()
            .map(|hub| {
                self.prices
                    .for_hub(*hub)
                    .expect("scenario construction guarantees coverage")
                    .mean()
                    .expect("non-empty series")
            })
            .collect()
    }

    /// A static cheapest-hub policy parameterised by this scenario's mean
    /// prices (§6.3's "only use cheapest hub" comparison).
    pub fn static_cheapest_policy(&self) -> StaticCheapestPolicy {
        StaticCheapestPolicy::new(self.mean_prices())
    }

    /// Convenience: compare the baseline against the price-conscious
    /// optimizer at a distance threshold, with and without 95/5 caps.
    pub fn compare_price_conscious(&self, distance_threshold_km: f64) -> PolicyComparison {
        let baseline = self.baseline_report();
        let caps: Vec<f64> = baseline.clusters.iter().map(|c| c.p95_hits_per_sec).collect();

        let mut optimizer = PriceConsciousPolicy::with_distance_threshold(distance_threshold_km);
        let relaxed = self.execute(&mut optimizer, RunOptions::new());
        let constrained = self.execute(
            &mut optimizer,
            RunOptions::new().with_config(self.config.clone().with_bandwidth_caps(caps)),
        );

        PolicyComparison { baseline, alternatives: vec![relaxed, constrained] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wattroute_market::time::SimHour;
    use wattroute_routing::prelude::*;

    fn short_scenario() -> Scenario {
        let start = SimHour::from_date(2008, 12, 19);
        Scenario::custom_window(11, HourRange::new(start, start.plus_hours(2 * 24)))
    }

    #[test]
    fn scenario_runs_and_baseline_is_positive() {
        let s = short_scenario();
        let baseline = s.baseline_report();
        assert!(baseline.total_cost_dollars > 0.0);
        assert_eq!(baseline.clusters.len(), 9);
        assert_eq!(baseline.policy, "akamai-like");
    }

    #[test]
    fn comparison_has_relaxed_and_constrained_runs() {
        let s = short_scenario().with_energy(EnergyModelParams::optimistic_future());
        let cmp = s.compare_price_conscious(1500.0);
        assert_eq!(cmp.alternatives.len(), 2);
        assert!(!cmp.alternatives[0].bandwidth_constrained);
        assert!(cmp.alternatives[1].bandwidth_constrained);
        // Constrained savings never exceed relaxed savings.
        let relaxed = cmp.alternatives[0].savings_percent_vs(&cmp.baseline);
        let constrained = cmp.alternatives[1].savings_percent_vs(&cmp.baseline);
        assert!(relaxed >= constrained - 1e-9, "relaxed {relaxed} vs constrained {constrained}");
        assert!(relaxed > 0.0, "price-conscious routing should save with elastic energy");
    }

    #[test]
    fn mean_prices_align_with_clusters() {
        let s = short_scenario();
        let means = s.mean_prices();
        assert_eq!(means.len(), 9);
        assert!(means.iter().all(|m| *m > 10.0 && *m < 200.0));
        let mut static_policy = s.static_cheapest_policy();
        let report = s.execute(&mut static_policy, RunOptions::new());
        assert_eq!(report.policy, "static-cheapest-hub");
    }

    #[test]
    fn synthetic_scenario_replays_weekly_profile() {
        let start = SimHour::from_date(2006, 2, 5);
        let s = Scenario::synthetic_over(5, HourRange::new(start, start.plus_hours(7 * 24)));
        assert_eq!(s.config.reallocate_every_steps, 12);
        assert_eq!(s.trace.num_steps(), 7 * 24 * 12);
        let report = s.execute(&mut NearestClusterPolicy::new(), RunOptions::new());
        assert!(report.total_cost_dollars > 0.0);
    }

    #[test]
    fn energy_model_override_changes_cost() {
        let s = short_scenario();
        let elastic =
            s.clone().with_energy(EnergyModelParams::optimistic_future()).baseline_report();
        let inelastic = s.with_energy(EnergyModelParams::no_power_management()).baseline_report();
        assert!(inelastic.total_cost_dollars > elastic.total_cost_dollars * 1.5);
    }

    #[test]
    fn reaction_delay_is_propagated() {
        let s = short_scenario().with_reaction_delay(6);
        let report = s.baseline_report();
        assert_eq!(report.reaction_delay_hours, 6);
    }
}
