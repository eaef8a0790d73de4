//! Risk-adjusted candidate scoring on top of the Monte Carlo layer.
//!
//! The [`SweepEvaluator`](crate::SweepEvaluator) scores every candidate on
//! one deterministic price history, so two placements with the same
//! expected bill look identical even when one of them falls apart in the
//! tail price regimes the stochastic model can produce. A
//! [`RiskEvaluator`] replays each candidate over `N` Monte Carlo price
//! paths ([`wattroute::montecarlo`]) and scores the resulting
//! [`SavingsDistribution`] with
//! [`Objective::score_distribution`] — which adds the
//! [`with_cvar_weight`](Objective::with_cvar_weight) risk premium,
//! `cvar_weight × (CVaR_α(bill) − mean bill)`, pricing a candidate's tail
//! exposure in dollars. A fragile placement (cheap on average, terrible in
//! spiky regimes) then loses to a robust one even at equal expected cost.
//!
//! Scoring is deterministic for a master seed: the path stream is derived
//! with [`wattroute_market::generator::path_seed`], so repeated `score`
//! calls (and candidate rankings) are exactly reproducible.

use std::sync::Arc;
use wattroute::montecarlo::{MonteCarlo, SavingsDistribution, SharedPolicyFactory};
use wattroute::objective::{Objective, ObjectiveTerms};
use wattroute::simulation::SimulationConfig;
use wattroute_market::model::MarketModel;
use wattroute_workload::trace::Trace;
use wattroute_workload::ClusterSet;

/// Scores candidate deployments over Monte Carlo price-path distributions
/// instead of one deterministic history.
pub struct RiskEvaluator<'a> {
    trace: &'a Trace,
    model: MarketModel,
    config: SimulationConfig,
    objective: Objective,
    master_seed: u64,
    n_paths: usize,
    cvar_alpha: f64,
    threads: Option<usize>,
}

impl<'a> RiskEvaluator<'a> {
    /// Bind an evaluator to a trace, a calibrated price model (which must
    /// cover every hub a candidate may use), a simulation configuration
    /// and the master seed every candidate's path stream derives from.
    ///
    /// Defaults: 32 paths, CVaR level 0.95, [`Objective::default_qos`]
    /// (risk-neutral until [`Self::with_objective`] sets a `cvar_weight`).
    pub fn new(
        trace: &'a Trace,
        model: MarketModel,
        config: SimulationConfig,
        master_seed: u64,
    ) -> Self {
        Self {
            trace,
            model,
            config,
            objective: Objective::default_qos(),
            master_seed,
            n_paths: 32,
            cvar_alpha: 0.95,
            threads: None,
        }
    }

    /// Replace the objective (set a nonzero
    /// [`cvar_weight`](Objective::cvar_weight) to make the ranking
    /// risk-averse).
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Set the number of price paths per candidate (at least one).
    pub fn with_paths(mut self, n_paths: usize) -> Self {
        assert!(n_paths > 0, "at least one path is required");
        self.n_paths = n_paths;
        self
    }

    /// Set the CVaR confidence level `α ∈ [0, 1)` (default 0.95).
    pub fn with_cvar_alpha(mut self, alpha: f64) -> Self {
        assert!((0.0..1.0).contains(&alpha), "CVaR level must be in [0, 1)");
        self.cvar_alpha = alpha;
        self
    }

    /// Pin the Monte Carlo worker-thread count (results do not depend on
    /// it).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "worker pool needs at least one thread");
        self.threads = Some(threads);
        self
    }

    /// The objective candidates are scored under.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// Replay one candidate over the path distribution and score it.
    pub fn score(
        &self,
        candidate: &ClusterSet,
        policy: &SharedPolicyFactory,
    ) -> (SavingsDistribution, ObjectiveTerms) {
        let mut mc = MonteCarlo::new(
            candidate,
            self.trace,
            self.model.clone(),
            self.config.clone(),
            self.master_seed,
        )
        .with_paths(self.n_paths)
        .with_cvar_alpha(self.cvar_alpha)
        .with_policy_factory(Arc::clone(policy));
        if let Some(threads) = self.threads {
            mc = mc.with_threads(threads);
        }
        let dist = mc.run();
        let terms = self.objective.score_distribution(&dist);
        (dist, terms)
    }

    /// Score every candidate and rank them by total objective, cheapest
    /// (most robust) first. Returns `(candidate index, distribution,
    /// terms)` triples; ties keep candidate order.
    pub fn rank(
        &self,
        candidates: &[ClusterSet],
        policy: &SharedPolicyFactory,
    ) -> Vec<(usize, SavingsDistribution, ObjectiveTerms)> {
        let mut scored: Vec<(usize, SavingsDistribution, ObjectiveTerms)> = candidates
            .iter()
            .enumerate()
            .map(|(i, candidate)| {
                let (dist, terms) = self.score(candidate, policy);
                (i, dist, terms)
            })
            .collect();
        scored.sort_by(|a, b| {
            a.2.total().partial_cmp(&b.2.total()).expect("finite totals").then(a.0.cmp(&b.0))
        });
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::price_conscious_factory;
    use wattroute::prelude::*;

    fn small_scenario() -> Scenario {
        let start = SimHour::from_date(2008, 6, 1);
        Scenario::custom_window(9, HourRange::new(start, start.plus_hours(24)))
    }

    fn nine_hub_model(scenario: &Scenario) -> MarketModel {
        MarketModel::calibrated().restricted_to(&scenario.clusters.hub_ids())
    }

    #[test]
    fn scoring_is_deterministic_and_risk_neutral_by_default() {
        let s = small_scenario();
        let evaluator = RiskEvaluator::new(&s.trace, nine_hub_model(&s), s.config.clone(), 2009)
            .with_paths(6)
            .with_threads(2);
        let policy = price_conscious_factory(1500.0);
        let (dist, terms) = evaluator.score(&s.clusters, &policy);
        assert_eq!(dist.n_paths, 6);
        assert_eq!(terms.risk_premium_dollars, 0.0, "default objective is risk-neutral");
        assert!((terms.energy_cost_dollars - dist.bill.mean).abs() < 1e-9);
        // Same seed, same candidate: byte-identical distribution.
        let (again, terms_again) = evaluator.score(&s.clusters, &policy);
        assert_eq!(dist.to_json(), again.to_json());
        assert_eq!(terms, terms_again);
    }

    #[test]
    fn cvar_weight_charges_tail_exposure() {
        let s = small_scenario();
        let policy = price_conscious_factory(1500.0);
        let neutral = RiskEvaluator::new(&s.trace, nine_hub_model(&s), s.config.clone(), 2009)
            .with_paths(8)
            .with_threads(2);
        let averse = RiskEvaluator::new(&s.trace, nine_hub_model(&s), s.config.clone(), 2009)
            .with_paths(8)
            .with_threads(2)
            .with_objective(Objective::default_qos().with_cvar_weight(1.0));
        let (dist_n, terms_n) = neutral.score(&s.clusters, &policy);
        let (dist_a, terms_a) = averse.score(&s.clusters, &policy);
        // The replay is identical; only the scoring changes.
        assert_eq!(dist_n.to_json(), dist_a.to_json());
        assert_eq!(terms_n.risk_premium_dollars, 0.0);
        // Eight distinct price paths have a real tail above the mean.
        assert!(dist_a.bill_cvar_dollars > dist_a.bill.mean);
        let expected = dist_a.bill_cvar_dollars - dist_a.bill.mean;
        assert!((terms_a.risk_premium_dollars - expected).abs() < 1e-9);
        assert!((terms_a.total() - terms_n.total() - expected).abs() < 1e-9);
    }

    #[test]
    fn rank_orders_by_total_ascending() {
        let s = small_scenario();
        let policy = price_conscious_factory(1500.0);
        let evaluator = RiskEvaluator::new(&s.trace, nine_hub_model(&s), s.config.clone(), 2009)
            .with_paths(4)
            .with_threads(2);
        // An under-provisioned copy of the deployment pays SLA penalties,
        // so the full-capacity candidate must rank first.
        let starved = s.clusters.scaled(0.05);
        let ranking = evaluator.rank(&[starved, s.clusters.clone()], &policy);
        assert_eq!(ranking.len(), 2);
        assert_eq!(ranking[0].0, 1, "full-capacity candidate is the robust one");
        assert!(ranking[0].2.total() <= ranking[1].2.total());
        assert!(ranking[1].2.sla_penalty_dollars > 0.0, "starved candidate pays for overflow");
    }
}
