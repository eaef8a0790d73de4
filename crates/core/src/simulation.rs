//! The discrete-time cost simulator (§6.1 of the paper).
//!
//! The simulator steps through a traffic trace at 5-minute resolution,
//! letting a routing policy (with a global view) allocate each step's
//! per-state demand to clusters. Cluster energy is computed from the
//! allocation through the §5.1 power model, and multiplied by that hour's
//! (delayed) locational price to accumulate dollars. Reports capture total
//! and per-cluster cost, energy, utilization, 95th-percentile loads and
//! client–server distance statistics.

use crate::constraints::BandwidthTariff;
use crate::engine::{PriceSlice, SimulationEngine, Threads};
use crate::report::SimulationReport;
use std::borrow::Cow;
use std::sync::Arc;
use wattroute_energy::model::EnergyModelParams;
use wattroute_market::price_table::PriceTable;
use wattroute_market::time::HourRange;
use wattroute_market::types::PriceSet;
use wattroute_routing::constraints::{ConstraintSet, OverflowMode};
use wattroute_routing::policy::RoutingPolicy;
use wattroute_routing::price_conscious::CompiledPreferences;
use wattroute_workload::trace::{Trace, STEPS_PER_HOUR};
use wattroute_workload::ClusterSet;

/// Static configuration of a simulation run (everything except the policy).
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// Per-server energy parameters applied to every cluster.
    pub energy: EnergyModelParams,
    /// Delay, in hours, between the market setting a price and the router
    /// seeing it. The paper conservatively uses one hour (§6.1, §6.4).
    pub reaction_delay_hours: u64,
    /// The constraints every routing decision must respect: capacity
    /// ceilings, per-cluster 95/5 bandwidth caps (typically derived from a
    /// baseline calibration pass — see
    /// [`CalibratedScenario`](crate::constraints::CalibratedScenario)),
    /// and the overflow mode. The simulator *borrows* this set on every
    /// reallocation; it is never cloned on the hot path.
    pub constraints: ConstraintSet,
    /// How many 5-minute steps share one routing decision. 1 re-routes every
    /// step; 12 re-routes hourly, which is exact for workloads that are
    /// constant within the hour (such as the replayed weekly profile used
    /// for the 39-month simulations) and far faster.
    ///
    /// The engine additionally re-routes whenever a step crosses an hour
    /// boundary, so a cached allocation never straddles hours and stale
    /// prices are never reused — intervals that do not divide twelve behave
    /// as "at most this often within the hour".
    pub reallocate_every_steps: usize,
    /// Optional 95/5 bandwidth tariff. When set, reports carry a
    /// per-cluster (and total) bandwidth bill priced on the observed 95th
    /// percentiles; when `None`, the bandwidth-accounting fields stay zero
    /// and are omitted from JSON (reports are byte-identical to
    /// pre-tariff ones).
    pub bandwidth_tariff: Option<BandwidthTariff>,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            energy: EnergyModelParams::optimistic_future(),
            reaction_delay_hours: 1,
            constraints: ConstraintSet::unconstrained(),
            reallocate_every_steps: 1,
            bandwidth_tariff: None,
        }
    }
}

impl SimulationConfig {
    /// Replace the energy model.
    pub fn with_energy(mut self, energy: EnergyModelParams) -> Self {
        self.energy = energy;
        self
    }

    /// Set the reaction delay in hours.
    pub fn with_reaction_delay(mut self, hours: u64) -> Self {
        self.reaction_delay_hours = hours;
        self
    }

    /// Replace the whole constraint set.
    pub fn with_constraints(mut self, constraints: ConstraintSet) -> Self {
        self.constraints = constraints;
        self
    }

    /// Attach 95/5 bandwidth ceilings (keeping the rest of the constraint
    /// set).
    pub fn with_bandwidth_caps(mut self, caps: Vec<f64>) -> Self {
        self.constraints = self.constraints.with_bandwidth_caps(caps);
        self
    }

    /// Set the re-allocation interval in 5-minute steps.
    pub fn with_reallocation_interval(mut self, steps: usize) -> Self {
        assert!(steps >= 1, "reallocation interval must be at least one step");
        self.reallocate_every_steps = steps;
        self
    }

    /// Set the overflow mode (what happens to over-capacity demand).
    pub fn with_overflow(mut self, overflow: OverflowMode) -> Self {
        self.constraints = self.constraints.with_overflow(overflow);
        self
    }

    /// Attach a 95/5 bandwidth tariff so reports carry a bandwidth bill.
    pub fn with_bandwidth_tariff(mut self, tariff: BandwidthTariff) -> Self {
        self.bandwidth_tariff = Some(tariff);
        self
    }
}

/// The hour range spanned by a trace's steps, including a partial trailing
/// hour (unlike [`Trace::hour_range`], which rounds down — the price table
/// must cover every hour any step falls in).
pub(crate) fn step_coverage(trace: &Trace) -> HourRange {
    let covered = trace.num_steps().div_ceil(STEPS_PER_HOUR) as u64;
    HourRange::new(trace.start, trace.start.plus_hours(covered))
}

/// A bound simulation: deployment + trace + compiled prices + configuration.
#[derive(Debug, Clone)]
pub struct Simulation<'a> {
    clusters: &'a ClusterSet,
    trace: &'a Trace,
    table: Cow<'a, PriceTable>,
    config: SimulationConfig,
}

impl<'a> Simulation<'a> {
    /// Bind a simulation, compiling the price set into a dense
    /// [`PriceTable`] for the trace range. Validates that every cluster's
    /// hub has a price series covering the trace.
    ///
    /// # Panics
    /// Panics on missing price series, coverage gaps, or cap-length
    /// mismatches — these are configuration errors, not data conditions.
    pub fn new(
        clusters: &'a ClusterSet,
        trace: &'a Trace,
        prices: &'a PriceSet,
        config: SimulationConfig,
    ) -> Self {
        assert!(!clusters.is_empty(), "deployment has no clusters");
        assert!(trace.num_steps() > 0, "trace is empty");
        let table = PriceTable::build(
            prices,
            &clusters.hub_ids(),
            step_coverage(trace),
            config.reaction_delay_hours,
        );
        Self::with_price_table(clusters, trace, Cow::Owned(table), config)
    }

    /// Bind a simulation to an already-compiled [`PriceTable`] (borrowed, so
    /// one table can be shared across many concurrent runs — the scenario
    /// sweep runner does exactly this).
    ///
    /// # Panics
    /// Panics if the table's hub order, range, or delay do not match the
    /// deployment, trace, and configuration.
    pub fn with_price_table(
        clusters: &'a ClusterSet,
        trace: &'a Trace,
        table: Cow<'a, PriceTable>,
        config: SimulationConfig,
    ) -> Self {
        assert!(!clusters.is_empty(), "deployment has no clusters");
        assert!(trace.num_steps() > 0, "trace is empty");
        config.constraints.validate(clusters.len());
        assert_eq!(table.hubs(), clusters.hub_ids(), "price table hub order mismatch");
        assert_eq!(
            table.delay_hours(),
            config.reaction_delay_hours,
            "price table compiled for a different reaction delay"
        );
        let needed = step_coverage(trace);
        let covered = table.range();
        assert!(
            covered.start.0 <= needed.start.0 && covered.end.0 >= needed.end.0,
            "price table ({covered:?}) does not cover the trace ({needed:?})"
        );
        Self { clusters, trace, table, config }
    }

    /// The configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The compiled price table driving this simulation.
    pub fn price_table(&self) -> &PriceTable {
        &self.table
    }

    /// Run a policy over the whole trace and produce a report — the batch
    /// driver over the incremental tick core ([`SimulationEngine`]): one
    /// call per allocation epoch, prices looked up in the compiled table.
    /// Bit-identical to one `tick` per trace step, and to the historical
    /// monolithic loop.
    ///
    /// On a host that can run two threads at once, the run routes on the
    /// calling thread while a scoped worker accounts the epochs behind it
    /// (see `docs/engine.md`); the report is the same bits either way. A
    /// panic in the policy or the accounting reaches the caller with its
    /// own payload.
    pub fn execute(&self, policy: &mut dyn RoutingPolicy) -> SimulationReport {
        let geometry = Arc::new(CompiledPreferences::build(self.clusters, &self.trace.states));
        self.replay(Threads::available(), policy, geometry, &[]).report()
    }

    /// Replay the trace once on `threads` under `policy`, over `geometry`
    /// (compiled for this deployment and the trace's states), accounting
    /// it under the configured energy model and, in lanes of one engine,
    /// each of `energy_lanes` (see [`SimulationEngine`]), and return that
    /// engine. Its `reports()` hold one report per model, the configured
    /// one first, each bit-identical to a run of its model on its own,
    /// since the energy model never shapes routing. [`Self::execute`] is
    /// this replay with no extra lanes; a scenario sweep replays a group
    /// of cells that differ only in energy model through it, over its
    /// compiled artifacts' geometry, on one thread per replay.
    pub(crate) fn replay(
        &self,
        threads: Threads,
        policy: &mut dyn RoutingPolicy,
        geometry: Arc<CompiledPreferences>,
        energy_lanes: &[EnergyModelParams],
    ) -> SimulationEngine<'a> {
        let config = self.config.clone();
        let mut engine =
            SimulationEngine::with_geometry(self.clusters, &self.trace.states, geometry, config)
                .with_clamped_lead_hours(self.table.clamped_lead_hours())
                .with_energy_lanes(energy_lanes);
        engine.replay_trace(threads, policy, self.trace, |hour| {
            PriceSlice::new(
                hour,
                self.table.delayed_at(hour).expect("table covers the trace"),
                // Spot prices used for billing are the *actual* prices of
                // this hour (the delay only affects what the router saw).
                self.table.billing_at(hour).expect("table covers the trace"),
            )
        });
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panics::{panic_message, Boom};
    use wattroute_market::generator::PriceGenerator;
    use wattroute_market::model::MarketModel;
    use wattroute_market::time::{HourRange, SimHour};
    use wattroute_routing::prelude::*;
    use wattroute_workload::SyntheticWorkloadConfig;

    fn small_setup() -> (ClusterSet, Trace, PriceSet) {
        let clusters = ClusterSet::akamai_like_nine();
        let start = SimHour::from_date(2008, 12, 19);
        let range = HourRange::new(start, start.plus_hours(3 * 24));
        let trace = SyntheticWorkloadConfig::default().generate(range);
        // Price data must extend one delay-hour before... delayed_price_at
        // clamps, so the same range suffices.
        let prices = PriceGenerator::nine_cluster_default(7).realtime_hourly(range);
        (clusters, trace, prices)
    }

    #[test]
    fn energy_and_cost_are_positive_and_consistent() {
        let (clusters, trace, prices) = small_setup();
        let sim = Simulation::new(&clusters, &trace, &prices, SimulationConfig::default());
        let report = sim.execute(&mut NearestClusterPolicy::new());
        assert_eq!(report.steps, trace.num_steps());
        assert!(report.total_cost_dollars > 0.0);
        assert!(report.total_energy_mwh > 0.0);
        assert_eq!(report.clusters.len(), 9);
        let sum: f64 = report.clusters.iter().map(|c| c.cost_dollars).sum();
        assert!((sum - report.total_cost_dollars).abs() < 1e-6);
        // Every cluster consumed at least its idle energy.
        assert!(report.clusters.iter().all(|c| c.energy_mwh > 0.0));
    }

    #[test]
    fn price_optimizer_is_cheaper_than_baseline_with_elastic_energy() {
        let (clusters, trace, prices) = small_setup();
        let config =
            SimulationConfig::default().with_energy(EnergyModelParams::optimistic_future());
        let sim = Simulation::new(&clusters, &trace, &prices, config);
        let baseline = sim.execute(&mut AkamaiLikePolicy::default());
        let optimized = sim.execute(&mut PriceConsciousPolicy::with_distance_threshold(1500.0));
        assert!(
            optimized.total_cost_dollars < baseline.total_cost_dollars,
            "optimizer {} should beat baseline {}",
            optimized.total_cost_dollars,
            baseline.total_cost_dollars
        );
        // And it does so by moving load, which lengthens paths.
        assert!(optimized.mean_distance_km >= baseline.mean_distance_km * 0.9);
    }

    #[test]
    fn inelastic_clusters_see_much_smaller_savings() {
        let (clusters, trace, prices) = small_setup();
        let elastic_cfg =
            SimulationConfig::default().with_energy(EnergyModelParams::optimistic_future());
        let inelastic_cfg =
            SimulationConfig::default().with_energy(EnergyModelParams::no_power_management());

        let elastic_sim = Simulation::new(&clusters, &trace, &prices, elastic_cfg);
        let inelastic_sim = Simulation::new(&clusters, &trace, &prices, inelastic_cfg);

        let mut baseline = AkamaiLikePolicy::default();
        let mut optimizer = PriceConsciousPolicy::with_distance_threshold(1500.0);

        let elastic_savings = {
            let base = elastic_sim.execute(&mut baseline);
            let opt = elastic_sim.execute(&mut optimizer);
            opt.savings_percent_vs(&base)
        };
        let inelastic_savings = {
            let base = inelastic_sim.execute(&mut baseline);
            let opt = inelastic_sim.execute(&mut optimizer);
            opt.savings_percent_vs(&base)
        };
        assert!(
            elastic_savings > inelastic_savings + 2.0,
            "elasticity should matter: elastic {elastic_savings:.2}% vs inelastic {inelastic_savings:.2}%"
        );
        assert!(inelastic_savings > -1.0, "inelastic savings should not be substantially negative");
    }

    #[test]
    fn bandwidth_caps_reduce_savings_but_are_respected() {
        let (clusters, trace, prices) = small_setup();
        let unconstrained_cfg = SimulationConfig::default();
        let sim = Simulation::new(&clusters, &trace, &prices, unconstrained_cfg.clone());
        let baseline = sim.execute(&mut AkamaiLikePolicy::default());

        let caps: Vec<f64> = baseline.clusters.iter().map(|c| c.p95_hits_per_sec).collect();
        let constrained_cfg = unconstrained_cfg.with_bandwidth_caps(caps.clone());
        let constrained_sim = Simulation::new(&clusters, &trace, &prices, constrained_cfg);

        let mut optimizer = PriceConsciousPolicy::with_distance_threshold(2500.0);
        let unconstrained = sim.execute(&mut optimizer);
        let constrained = constrained_sim.execute(&mut optimizer);

        assert!(constrained.bandwidth_constrained);
        assert!(!unconstrained.bandwidth_constrained);
        assert!(
            constrained.total_cost_dollars >= unconstrained.total_cost_dollars - 1e-6,
            "respecting 95/5 cannot be cheaper than ignoring it"
        );
        // The constrained run's p95 stays near the caps (small tolerance for
        // the fact that caps bind per step while p95 is a distribution
        // statistic).
        assert!(constrained.respects_p95_caps(&caps, 0.05));
    }

    #[test]
    fn hourly_reallocation_matches_per_step_for_hourly_constant_demand() {
        let clusters = ClusterSet::akamai_like_nine();
        let start = SimHour::from_date(2006, 3, 6);
        let range = HourRange::new(start, start.plus_hours(48));
        let trace_raw = SyntheticWorkloadConfig::default().generate(range);
        // Make demand constant within each hour by replaying a weekly profile.
        let long = SyntheticWorkloadConfig::default().generate(HourRange::akamai_24_days());
        let profile = wattroute_workload::derive::WeeklyProfile::from_trace(&long).unwrap();
        let trace = profile.replay(range);
        drop(trace_raw);
        let prices = PriceGenerator::nine_cluster_default(3).realtime_hourly(range);

        let per_step_cfg = SimulationConfig::default();
        let hourly_cfg = SimulationConfig::default().with_reallocation_interval(12);
        let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
        let a = Simulation::new(&clusters, &trace, &prices, per_step_cfg).execute(&mut policy);
        let b = Simulation::new(&clusters, &trace, &prices, hourly_cfg).execute(&mut policy);
        assert!((a.total_cost_dollars - b.total_cost_dollars).abs() < 1e-6 * a.total_cost_dollars);
    }

    #[test]
    fn oversubscribed_deployment_reports_overflow() {
        let (clusters, trace, prices) = small_setup();
        // Shrink the deployment until demand far exceeds total capacity.
        let tiny = clusters.scaled(1e-6);
        let sim = Simulation::new(&tiny, &trace, &prices, SimulationConfig::default());
        let report = sim.execute(&mut NearestClusterPolicy::new());
        assert!(
            report.total_overflow_hits > 0.0,
            "demand beyond capacity must be reported, not silently billed as served"
        );
        assert!(report.clusters.iter().any(|c| c.overflow_hits > 0.0));
        let sum: f64 = report.clusters.iter().map(|c| c.overflow_hits).sum();
        assert!((sum - report.total_overflow_hits).abs() < 1e-6 * sum.max(1.0));

        // A comfortably provisioned run reports none.
        let roomy = Simulation::new(&clusters, &trace, &prices, SimulationConfig::default());
        let ok = roomy.execute(&mut NearestClusterPolicy::new());
        assert_eq!(ok.total_overflow_hits, 0.0);
        assert!(ok.clusters.iter().all(|c| c.overflow_hits == 0.0));
    }

    #[test]
    fn reject_mode_counts_rejections_and_leaves_cost_untouched() {
        let (clusters, trace, prices) = small_setup();
        let tiny = clusters.scaled(1e-6); // hopelessly over-subscribed
        let billed_cfg = SimulationConfig::default();
        let reject_cfg = SimulationConfig::default().with_overflow(OverflowMode::Reject);

        let billed = Simulation::new(&tiny, &trace, &prices, billed_cfg)
            .execute(&mut NearestClusterPolicy::new());
        let rejected = Simulation::new(&tiny, &trace, &prices, reject_cfg)
            .execute(&mut NearestClusterPolicy::new());

        // The same over-capacity demand lands in exactly one bucket per mode.
        assert!(billed.total_overflow_hits > 0.0);
        assert_eq!(billed.total_rejected_hits, 0.0);
        assert_eq!(rejected.total_overflow_hits, 0.0);
        assert!(
            (rejected.total_rejected_hits - billed.total_overflow_hits).abs()
                < 1e-9 * billed.total_overflow_hits,
            "rejected demand must equal what BillAtCapacity calls overflow"
        );
        // Served hits shrink by exactly the rejected amount; money and
        // energy are identical (the power model saturates either way).
        let billed_hits: f64 = billed.clusters.iter().map(|c| c.total_hits).sum();
        let served_hits: f64 = rejected.clusters.iter().map(|c| c.total_hits).sum();
        assert!(
            (billed_hits - served_hits - rejected.total_rejected_hits).abs() < 1e-6 * billed_hits
        );
        assert_eq!(billed.total_cost_dollars, rejected.total_cost_dollars);
        assert_eq!(billed.total_energy_mwh, rejected.total_energy_mwh);

        // Per-cluster sums stay consistent.
        let sum: f64 = rejected.clusters.iter().map(|c| c.rejected_hits).sum();
        assert!((sum - rejected.total_rejected_hits).abs() < 1e-6 * sum.max(1.0));

        // A comfortably provisioned run rejects nothing in either mode.
        let roomy_cfg = SimulationConfig::default().with_overflow(OverflowMode::Reject);
        let ok = Simulation::new(&clusters, &trace, &prices, roomy_cfg)
            .execute(&mut NearestClusterPolicy::new());
        assert_eq!(ok.total_rejected_hits, 0.0);
    }

    #[test]
    fn delayed_price_clamp_is_surfaced_in_the_report() {
        let (clusters, trace, prices) = small_setup();
        // The generated price series cover exactly the trace range, so a
        // 24-hour delay cannot see real history for the first day: the
        // report must say so rather than quietly reusing the first sample.
        let config = SimulationConfig::default().with_reaction_delay(24);
        let sim = Simulation::new(&clusters, &trace, &prices, config);
        let report = sim.execute(&mut NearestClusterPolicy::new());
        assert_eq!(report.delay_clamped_hours, 24);

        // With history extending a day before the trace, nothing clamps.
        let wide_range = HourRange::new(SimHour(trace.start.0 - 24), trace.hour_range().end);
        let wide = PriceGenerator::nine_cluster_default(7).realtime_hourly(wide_range);
        let config = SimulationConfig::default().with_reaction_delay(24);
        let sim = Simulation::new(&clusters, &trace, &wide, config);
        let report = sim.execute(&mut NearestClusterPolicy::new());
        assert_eq!(report.delay_clamped_hours, 0);
    }

    #[test]
    fn reallocation_never_straddles_hour_boundaries() {
        // An interval that does not divide the 12 steps/hour used to let a
        // cached allocation cross into the next hour and route on the
        // previous hour's prices. Pin the fix: with demand constant within
        // each hour, a 5-step interval must now match per-step routing
        // exactly (every allocation inside one hour sees identical inputs).
        let clusters = ClusterSet::akamai_like_nine();
        let start = SimHour::from_date(2006, 3, 6);
        let range = HourRange::new(start, start.plus_hours(48));
        let long = SyntheticWorkloadConfig::default().generate(HourRange::akamai_24_days());
        let profile = wattroute_workload::derive::WeeklyProfile::from_trace(&long).unwrap();
        let trace = profile.replay(range);
        let prices = PriceGenerator::nine_cluster_default(3).realtime_hourly(range);

        let per_step_cfg = SimulationConfig::default();
        let ragged_cfg = SimulationConfig::default().with_reallocation_interval(5);
        let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
        let a = Simulation::new(&clusters, &trace, &prices, per_step_cfg).execute(&mut policy);
        let b = Simulation::new(&clusters, &trace, &prices, ragged_cfg).execute(&mut policy);
        assert!(
            (a.total_cost_dollars - b.total_cost_dollars).abs() < 1e-9 * a.total_cost_dollars,
            "allocations must re-trigger on hour change: {} vs {}",
            a.total_cost_dollars,
            b.total_cost_dollars
        );
    }

    #[test]
    fn shared_price_table_matches_owned_table() {
        let (clusters, trace, prices) = small_setup();
        let config = SimulationConfig::default();
        let owned = Simulation::new(&clusters, &trace, &prices, config.clone());
        let table = owned.price_table().clone();
        let borrowed = Simulation::with_price_table(
            &clusters,
            &trace,
            std::borrow::Cow::Borrowed(&table),
            config,
        );
        let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
        assert_eq!(owned.execute(&mut policy), borrowed.execute(&mut policy));
    }

    /// Replay `sim` under a fresh policy from `make` on one thread, then on
    /// two. The runs must agree bit for bit: the report, its JSON and every
    /// load the replayed engine holds. Returns the report.
    fn assert_two_threads_match_one(
        sim: &Simulation<'_>,
        make: &dyn Fn() -> Box<dyn RoutingPolicy>,
        case: &str,
    ) -> SimulationReport {
        let run = |threads| {
            let geometry = Arc::new(CompiledPreferences::build(sim.clusters, &sim.trace.states));
            let engine = sim.replay(threads, make().as_mut(), geometry, &[]);
            let report = engine.report();
            let loads: Vec<Vec<u64>> = engine
                .into_load_series()
                .iter()
                .map(|series| series.iter().map(|x| x.to_bits()).collect())
                .collect();
            (report, loads)
        };
        let (one, one_loads) = run(Threads::One);
        let (two, two_loads) = run(Threads::Two);
        assert_eq!(two, one, "{case}");
        assert_eq!(two.to_json(), one.to_json(), "{case}");
        assert_eq!(two_loads, one_loads, "{case}");
        assert_eq!(one.steps, sim.trace.num_steps(), "{case}");
        one
    }

    /// Builds a fresh policy per run.
    type MakePolicy = Box<dyn Fn() -> Box<dyn RoutingPolicy>>;

    /// Every built-in policy, fresh per run.
    fn built_in_policies(clusters: &ClusterSet) -> Vec<(&'static str, MakePolicy)> {
        let n = clusters.len();
        let mean_prices: Vec<f64> = (0..n).map(|c| 40.0 + 3.0 * c as f64).collect();
        let intensity: Vec<f64> = (0..n).map(|c| 300.0 + 50.0 * (c % 4) as f64).collect();
        vec![
            ("nearest", Box::new(|| Box::new(NearestClusterPolicy::new()))),
            ("akamai-like", Box::new(|| Box::new(AkamaiLikePolicy::default()))),
            (
                "static-cheapest",
                Box::new(move || Box::new(StaticCheapestPolicy::new(mean_prices.clone()))),
            ),
            (
                "price-conscious",
                Box::new(|| Box::new(PriceConsciousPolicy::with_distance_threshold(1500.0))),
            ),
            (
                "carbon-aware",
                Box::new(move || Box::new(CarbonAwarePolicy::new(1500.0, intensity.clone()))),
            ),
            ("joint-cost", Box::new(|| Box::new(JointCostPolicy::new(0.01)))),
        ]
    }

    /// The first `steps` steps of `trace`.
    fn truncated(trace: &Trace, steps: usize) -> Trace {
        Trace::new(trace.start, trace.states.clone(), trace.steps()[..steps].to_vec())
    }

    #[test]
    fn two_threads_replay_every_policy_and_regime_bit_for_bit_like_one() {
        let (clusters, trace, prices) = small_setup();
        // A day that ends seven steps into its last hour, and mid-batch at
        // every interval.
        let trace = truncated(&trace, 24 * STEPS_PER_HOUR - 7);
        let tiers = TierCaps::from_topology(
            &wattroute_workload::hierarchy::single_region_of(&clusters).with_tier_slack(0.5),
        )
        .expect("a slack of 0.5 caps every tier");
        let small = clusters.scaled(0.02);
        for interval in [1, 5, 12, 13] {
            let relaxed = SimulationConfig::default().with_reallocation_interval(interval);
            let baseline = Simulation::new(&clusters, &trace, &prices, relaxed.clone())
                .execute(&mut AkamaiLikePolicy::default());
            let caps = baseline.clusters.iter().map(|c| c.p95_hits_per_sec).collect();
            let follow = relaxed
                .clone()
                .with_bandwidth_caps(caps)
                .with_bandwidth_tariff(BandwidthTariff::default_cdn());
            let tiered = relaxed
                .clone()
                .with_constraints(ConstraintSet::unconstrained().with_tier_caps(tiers.clone()));
            let reject = relaxed.clone().with_overflow(OverflowMode::Reject);
            for (regime, deployment, config) in [
                ("relaxed", &clusters, relaxed),
                ("follow-95/5", &clusters, follow),
                ("tier caps", &clusters, tiered),
                ("reject", &small, reject),
            ] {
                let sim = Simulation::new(deployment, &trace, &prices, config);
                for (policy, make) in built_in_policies(deployment) {
                    let case = format!("{policy}, {regime}, interval {interval}");
                    let report = assert_two_threads_match_one(&sim, make.as_ref(), &case);
                    if regime == "reject" {
                        assert!(report.total_rejected_hits > 0.0, "{case}: nothing rejected");
                    }
                }
            }
        }
    }

    #[test]
    fn two_threads_replay_a_trace_of_whole_batches_bit_for_bit_like_one() {
        // Hourly epochs filling exactly two batches: the last send leaves
        // nothing to flush.
        let clusters = ClusterSet::akamai_like_nine();
        let per_batch = crate::engine::epochs_per_batch(clusters.len() * 51 * 8);
        let start = SimHour::from_date(2008, 12, 19);
        let range = HourRange::new(start, start.plus_hours(2 * per_batch as u64));
        let trace = SyntheticWorkloadConfig::default().generate(range);
        assert_eq!(trace.states.len(), 51);
        let prices = PriceGenerator::nine_cluster_default(7).realtime_hourly(range);
        let config = SimulationConfig::default().with_reallocation_interval(12);
        let sim = Simulation::new(&clusters, &trace, &prices, config);
        let make = || -> Box<dyn RoutingPolicy> {
            Box::new(PriceConsciousPolicy::with_distance_threshold(1500.0))
        };
        assert_two_threads_match_one(&sim, &make, "two whole batches");
    }

    /// §6.2's 24-day trace re-routed on every step: 6912 routed epochs,
    /// over a hundred batches.
    #[test]
    fn two_threads_replay_the_paper_scale_24_day_trace_bit_for_bit_like_one() {
        let scenario = crate::scenario::Scenario::akamai_24_day(2009);
        assert_eq!(scenario.trace.num_steps(), 6912);
        assert_eq!(scenario.config.reallocate_every_steps, 1);
        let sim = Simulation::new(
            &scenario.clusters,
            &scenario.trace,
            &scenario.prices,
            scenario.config.clone(),
        );
        let make = || -> Box<dyn RoutingPolicy> {
            Box::new(PriceConsciousPolicy::with_distance_threshold(1500.0))
        };
        assert_two_threads_match_one(&sim, &make, "24 days at interval 1");
    }

    /// Routes through `inner`, noting the address of every buffer it is
    /// handed to route into.
    struct BufferSpy<P> {
        inner: P,
        buffers: std::collections::BTreeSet<usize>,
    }

    impl<P: RoutingPolicy> RoutingPolicy for BufferSpy<P> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn allocate_into(&mut self, out: &mut Allocation, ctx: &RoutingContext<'_>) {
            self.inner.allocate_into(out, ctx);
            self.buffers.insert(out.row(0).as_ptr() as usize);
        }
    }

    #[test]
    fn a_wide_deployment_keeps_one_allocation_per_batch_in_flight() {
        let topology = wattroute_geo::topology::Topology::synthetic(7, 1000);
        let clusters = wattroute_workload::hierarchy::site_clusters(&topology);
        let start = SimHour::from_date(2008, 12, 19);
        let range = HourRange::new(start, start.plus_hours(3));
        let trace = SyntheticWorkloadConfig::default().generate(range);
        let prices = PriceGenerator::new(MarketModel::calibrated(), 9).realtime_hourly(range);
        let sim = Simulation::new(&clusters, &trace, &prices, SimulationConfig::default());
        let make = || -> Box<dyn RoutingPolicy> { Box::new(NearestClusterPolicy::new()) };
        assert_two_threads_match_one(&sim, &make, "1000 sites");

        // A 1000 × 51 allocation is 408 kB, so each batch carries one
        // epoch: the batches hold at most one buffer each, plus the one
        // the engine holds.
        let bytes = clusters.len() * trace.states.len() * 8;
        assert_eq!(crate::engine::epochs_per_batch(bytes), 1);
        let geometry = Arc::new(CompiledPreferences::build(&clusters, &trace.states));
        let mut spy = BufferSpy { inner: NearestClusterPolicy::new(), buffers: Default::default() };
        sim.replay(Threads::Two, &mut spy, geometry, &[]);
        assert!(
            spy.buffers.len() <= crate::engine::BATCHES + 1,
            "{} buffers of {bytes} bytes routed into",
            spy.buffers.len()
        );

        // The nine-cluster deployment's batches stay within the bound.
        let (clusters, trace, prices) = small_setup();
        let bytes = clusters.len() * trace.states.len() * 8;
        let sim = Simulation::new(&clusters, &trace, &prices, SimulationConfig::default());
        let geometry = Arc::new(CompiledPreferences::build(&clusters, &trace.states));
        let mut spy = BufferSpy { inner: NearestClusterPolicy::new(), buffers: Default::default() };
        sim.replay(Threads::Two, &mut spy, geometry, &[]);
        assert!(spy.buffers.len() > 1, "the batches route into buffers of their own");
        assert!(
            (spy.buffers.len() - 1) * bytes <= crate::engine::IN_FLIGHT_BYTES,
            "{} buffers of {bytes} bytes routed into",
            spy.buffers.len()
        );
    }

    #[test]
    fn a_policy_panic_on_the_routing_thread_reaches_the_caller() {
        let (clusters, trace, prices) = small_setup();
        let sim = Simulation::new(&clusters, &trace, &prices, SimulationConfig::default());
        // Mid-run, with batches in flight, and on the first call.
        for calls in [500, 1] {
            let geometry = Arc::new(CompiledPreferences::build(&clusters, &trace.states));
            let mut boom = Boom::on_call(calls);
            let message = panic_message(|| {
                sim.replay(Threads::Two, &mut boom, geometry, &[]);
            });
            assert_eq!(message, "boom from the policy");
            // Through the public driver too, on either path.
            let mut boom = Boom::on_call(calls);
            let message = panic_message(|| {
                sim.execute(&mut boom);
            });
            assert_eq!(message, "boom from the policy");
        }
    }

    #[test]
    fn an_accounting_panic_on_the_worker_reaches_the_caller() {
        let (clusters, trace, prices) = small_setup();
        let sim = Simulation::new(&clusters, &trace, &prices, SimulationConfig::default());
        let table = sim.price_table();
        let short = [50.0; 8];
        // From the second day on, the billing row is one cluster short.
        let bad_hour = trace.start.plus_hours(24);
        let mut engine =
            SimulationEngine::new(&clusters, &trace.states, SimulationConfig::default());
        let message = panic_message(|| {
            engine.replay_trace(Threads::Two, &mut NearestClusterPolicy::new(), &trace, |hour| {
                let delayed = table.delayed_at(hour).expect("table covers the trace");
                let billing = table.billing_at(hour).expect("table covers the trace");
                PriceSlice::new(hour, delayed, if hour < bad_hour { billing } else { &short })
            });
        });
        assert!(message.contains("billing price length mismatch"), "{message}");
    }

    #[test]
    #[should_panic(expected = "a two-thread replay starts from a fresh engine")]
    fn a_two_thread_replay_needs_a_fresh_engine() {
        let (clusters, trace, prices) = small_setup();
        let sim = Simulation::new(&clusters, &trace, &prices, SimulationConfig::default());
        let table = sim.price_table();
        let rows = |hour| {
            PriceSlice::new(hour, table.delayed_at(hour).unwrap(), table.billing_at(hour).unwrap())
        };
        let mut engine =
            SimulationEngine::new(&clusters, &trace.states, SimulationConfig::default());
        let mut policy = NearestClusterPolicy::new();
        engine.tick(
            &mut policy,
            rows(trace.start),
            crate::engine::DemandSlice::new(&trace.steps()[0].us_demand),
        );
        engine.replay_trace(Threads::Two, &mut policy, &trace, rows);
    }

    #[test]
    #[should_panic(expected = "different reaction delay")]
    fn mismatched_table_delay_panics() {
        let (clusters, trace, prices) = small_setup();
        let base = Simulation::new(&clusters, &trace, &prices, SimulationConfig::default());
        let table = base.price_table().clone();
        let other = SimulationConfig::default().with_reaction_delay(5);
        let _ = Simulation::with_price_table(
            &clusters,
            &trace,
            std::borrow::Cow::Borrowed(&table),
            other,
        );
    }

    #[test]
    #[should_panic(expected = "no price series")]
    fn missing_price_series_panics() {
        let clusters = ClusterSet::akamai_like_nine();
        let start = SimHour::from_date(2008, 12, 19);
        let range = HourRange::new(start, start.plus_hours(24));
        let trace = SyntheticWorkloadConfig::default().generate(range);
        // Prices for only one hub.
        let all = PriceGenerator::nine_cluster_default(7).realtime_hourly(range);
        let one = PriceSet::new(vec![all.series[0].clone()]);
        let _ = Simulation::new(&clusters, &trace, &one, SimulationConfig::default());
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn short_price_series_panics() {
        let clusters = ClusterSet::akamai_like_nine();
        let start = SimHour::from_date(2008, 12, 19);
        let trace_range = HourRange::new(start, start.plus_hours(48));
        let price_range = HourRange::new(start, start.plus_hours(24));
        let trace = SyntheticWorkloadConfig::default().generate(trace_range);
        let prices = PriceGenerator::nine_cluster_default(7).realtime_hourly(price_range);
        let _ = Simulation::new(&clusters, &trace, &prices, SimulationConfig::default());
    }
}
