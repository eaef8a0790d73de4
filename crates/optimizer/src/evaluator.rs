//! Batch candidate evaluation on top of the sweep engine.
//!
//! Every optimizer iteration produces a batch of candidate deployments
//! that must all be simulated over the same trace and price history. A
//! [`SweepEvaluator`] turns each batch into one
//! [`ScenarioSweep`] and runs it through [`execute`](ScenarioSweep::execute)
//! against a **persistent** [`CompiledArtifacts`] cache, so:
//!
//! * the batch executes in parallel on the sweep's worker pool
//!   (respecting `available_parallelism`, overridable via
//!   [`SweepEvaluator::with_threads`]);
//! * every candidate whose hub list — its set of *active* hubs — was
//!   already visited, in this batch or any earlier one, reuses the cached
//!   billing matrix and routing-preference geometry. Capacity-only moves
//!   never recompile anything; only activating or deactivating a hub
//!   compiles a new hub list, exactly once for the whole search.

use std::sync::Arc;
use wattroute::montecarlo::SharedPolicyFactory;
use wattroute::report::SimulationReport;
use wattroute::run::RunOptions;
use wattroute::simulation::SimulationConfig;
use wattroute::sweep::{CompiledArtifacts, ScenarioSweep};
use wattroute_market::types::PriceSet;
use wattroute_routing::constraints::HubBandwidthCaps;
use wattroute_routing::policy::RoutingPolicy;
use wattroute_routing::price_conscious::PriceConsciousPolicy;
use wattroute_workload::trace::Trace;
use wattroute_workload::ClusterSet;

/// Wrap any concrete policy constructor as a [`SharedPolicyFactory`].
pub fn policy_factory<P, F>(f: F) -> SharedPolicyFactory
where
    P: RoutingPolicy + 'static,
    F: Fn() -> P + Send + Sync + 'static,
{
    Arc::new(move || Box::new(f()))
}

/// The workspace-standard policy for placement search: price-conscious
/// routing at a distance threshold.
pub fn price_conscious_factory(distance_threshold_km: f64) -> SharedPolicyFactory {
    policy_factory(move || PriceConsciousPolicy::with_distance_threshold(distance_threshold_km))
}

/// Evaluates batches of candidate deployments over one trace and price
/// set, sharing compiled artifacts across every batch it ever runs.
pub struct SweepEvaluator<'a> {
    trace: &'a Trace,
    prices: &'a PriceSet,
    config: SimulationConfig,
    hub_caps: Option<HubBandwidthCaps>,
    threads: Option<usize>,
    artifacts: CompiledArtifacts,
    evaluations: usize,
}

impl<'a> SweepEvaluator<'a> {
    /// Bind an evaluator to a trace, price set and simulation
    /// configuration. The price set must cover every candidate hub the
    /// search may activate.
    pub fn new(trace: &'a Trace, prices: &'a PriceSet, config: SimulationConfig) -> Self {
        Self {
            trace,
            prices,
            config,
            hub_caps: None,
            threads: None,
            artifacts: CompiledArtifacts::new(),
            evaluations: 0,
        }
    }

    /// Constrain every later candidate evaluation under calibrated,
    /// hub-keyed 95/5 bandwidth caps (see
    /// [`CalibratedScenario::hub_caps`](wattroute::constraints::CalibratedScenario::hub_caps)),
    /// or lift them with `None`: each candidate's configuration gets the
    /// caps resolved against *its own* cluster list — hubs the calibration
    /// never observed are unconstrained. The artifact cache is untouched —
    /// constraints are run-state, so an evaluator warmed by unconstrained
    /// batches keeps every compiled artifact when the constraint regime
    /// changes.
    pub fn set_hub_caps(&mut self, caps: Option<HubBandwidthCaps>) {
        self.hub_caps = caps;
    }

    /// The simulation configuration a specific candidate runs under: the
    /// base configuration, with hub-keyed caps (when set) resolved against
    /// the candidate's clusters.
    pub fn candidate_config(&self, candidate: &ClusterSet) -> SimulationConfig {
        let mut config = self.config.clone();
        if let Some(caps) = &self.hub_caps {
            config.constraints = caps.apply(candidate, &self.config.constraints);
        }
        config
    }

    /// Pin the worker-pool size used for each batch (default: the sweep
    /// engine's default, `std::thread::available_parallelism`).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "worker pool needs at least one thread");
        self.threads = Some(threads);
        self
    }

    /// The simulation configuration every candidate runs under.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Evaluate one policy on every candidate deployment; returns one
    /// report per candidate, in candidate order.
    pub fn evaluate(
        &mut self,
        candidates: &[ClusterSet],
        policy: &SharedPolicyFactory,
    ) -> Vec<SimulationReport> {
        self.evaluate_grid(candidates, std::slice::from_ref(policy)).pop().unwrap_or_default()
    }

    /// Evaluate a full candidates × policies grid as **one** sweep (every
    /// cell in parallel on one worker pool, all sharing the persistent
    /// artifact cache). Returns one row per policy, each holding one
    /// report per candidate in candidate order.
    pub fn evaluate_grid(
        &mut self,
        candidates: &[ClusterSet],
        policies: &[SharedPolicyFactory],
    ) -> Vec<Vec<SimulationReport>> {
        if candidates.is_empty() || policies.is_empty() {
            return vec![Vec::new(); policies.len()];
        }
        let mut sweep = ScenarioSweep::new(&candidates[0], self.trace, self.prices);
        if let Some(threads) = self.threads {
            sweep = sweep.with_threads(threads);
        }
        for (i, candidate) in candidates.iter().enumerate() {
            let id = sweep.add_deployment(format!("candidate:{i}"), candidate);
            let config = self.candidate_config(candidate);
            for (p, policy) in policies.iter().enumerate() {
                let factory = Arc::clone(policy);
                sweep.add_boxed_point_on(
                    id,
                    format!("candidate:{i}:policy:{p}"),
                    config.clone(),
                    Box::new(move || factory()),
                );
            }
        }
        let runs = sweep.execute(RunOptions::new().reuse_artifacts(&mut self.artifacts)).runs;
        self.evaluations += runs.len();
        wattroute_obs::counter!("optimizer.evaluations").add(runs.len() as u64);
        // Points were added candidate-major, and runs come back in grid
        // order: row p, column c is runs[c × policies + p].
        let mut rows = vec![Vec::new(); policies.len()];
        for (cell, run) in runs.into_iter().enumerate() {
            rows[cell % policies.len()].push(run.report);
        }
        rows
    }

    /// The shared artifact cache (hit/miss counters live here).
    pub fn artifacts(&self) -> &CompiledArtifacts {
        &self.artifacts
    }

    /// Total candidate simulations run through this evaluator.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wattroute::prelude::*;
    use wattroute_market::time::{HourRange, SimHour};

    #[test]
    fn batch_reports_match_sequential_simulations_and_cache_persists() {
        let start = SimHour::from_date(2008, 12, 19);
        let s = Scenario::custom_window(31, HourRange::new(start, start.plus_hours(24)));
        let policy = price_conscious_factory(1500.0);
        let mut evaluator =
            SweepEvaluator::new(&s.trace, &s.prices, s.config.clone()).with_threads(2);

        let nine = s.clusters.clone();
        let rescaled = nine.scaled(0.7);
        let reports = evaluator.evaluate(&[nine.clone(), rescaled.clone()], &policy);
        assert_eq!(reports.len(), 2);
        for (candidate, report) in [(&nine, &reports[0]), (&rescaled, &reports[1])] {
            let sequential = Simulation::new(candidate, &s.trace, &s.prices, s.config.clone())
                .execute(&mut PriceConsciousPolicy::with_distance_threshold(1500.0));
            assert_eq!(report, &sequential);
        }
        // Both candidates share one hub list: one miss, one hit.
        assert_eq!(evaluator.artifacts().hub_list_misses(), 1);
        assert_eq!(evaluator.artifacts().hub_list_hits(), 1);

        // A second batch revisiting the hub list is all hits.
        let again = evaluator.evaluate(std::slice::from_ref(&nine), &policy);
        assert_eq!(again[0], reports[0]);
        assert_eq!(evaluator.artifacts().hub_list_misses(), 1);
        assert_eq!(evaluator.artifacts().hub_list_hits(), 2);
        assert_eq!(evaluator.evaluations(), 3);
    }

    #[test]
    fn grid_rows_match_per_policy_batches() {
        let start = SimHour::from_date(2008, 12, 19);
        let s = Scenario::custom_window(31, HourRange::new(start, start.plus_hours(24)));
        let candidates = [s.clusters.clone(), s.clusters.scaled(0.6)];
        let policies = [price_conscious_factory(1500.0), price_conscious_factory(0.0)];

        let mut grid_eval = SweepEvaluator::new(&s.trace, &s.prices, s.config.clone());
        let rows = grid_eval.evaluate_grid(&candidates, &policies);
        assert_eq!(grid_eval.evaluations(), 4);

        let mut batch_eval = SweepEvaluator::new(&s.trace, &s.prices, s.config.clone());
        for (row, policy) in rows.iter().zip(&policies) {
            assert_eq!(row, &batch_eval.evaluate(&candidates, policy));
        }
    }

    #[test]
    fn hub_caps_constrain_each_candidate_against_its_own_hubs() {
        let start = SimHour::from_date(2008, 12, 19);
        let s = Scenario::custom_window(31, HourRange::new(start, start.plus_hours(24)));
        let calibrated = CalibratedScenario::calibrate(&s);
        let hub_caps = calibrated.hub_caps(1.0);
        let policy = price_conscious_factory(1500.0);

        let nine = s.clusters.clone();
        let east = ClusterSet::new(
            nine.clusters()
                .iter()
                .filter(|c| matches!(c.label.as_str(), "MA" | "NY" | "VA" | "NJ" | "IL"))
                .cloned()
                .collect::<Vec<_>>(),
        );

        let mut constrained =
            SweepEvaluator::new(&s.trace, &s.prices, s.config.clone()).with_threads(2);
        constrained.set_hub_caps(Some(hub_caps.clone()));
        let reports = constrained.evaluate(&[nine.clone(), east.clone()], &policy);
        assert!(reports.iter().all(|r| r.bandwidth_constrained));

        // Each candidate ran under the caps resolved against its own
        // cluster list — bit-identical to a sequential constrained run.
        for (candidate, report) in [(&nine, &reports[0]), (&east, &reports[1])] {
            let config = constrained.candidate_config(candidate);
            assert_eq!(config.constraints.bandwidth_caps(), Some(&hub_caps.resolve(candidate)[..]));
            let sequential = Simulation::new(candidate, &s.trace, &s.prices, config)
                .execute(&mut PriceConsciousPolicy::with_distance_threshold(1500.0));
            assert_eq!(report, &sequential);
        }

        // The constrained evaluator's cache behaviour is identical to an
        // unconstrained one over the same candidates.
        let mut relaxed =
            SweepEvaluator::new(&s.trace, &s.prices, s.config.clone()).with_threads(2);
        let _ = relaxed.evaluate(&[nine, east], &policy);
        assert_eq!(
            (constrained.artifacts().hub_list_hits(), constrained.artifacts().hub_list_misses()),
            (relaxed.artifacts().hub_list_hits(), relaxed.artifacts().hub_list_misses()),
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let start = SimHour::from_date(2008, 12, 19);
        let s = Scenario::custom_window(31, HourRange::new(start, start.plus_hours(24)));
        let mut evaluator = SweepEvaluator::new(&s.trace, &s.prices, s.config.clone());
        assert!(evaluator.evaluate(&[], &price_conscious_factory(1500.0)).is_empty());
        assert_eq!(evaluator.evaluations(), 0);
    }
}
