//! # wattroute_optimizer
//!
//! A deployment-*placement* optimizer: searches capacity splits across
//! candidate market hubs for the placement minimizing a configurable
//! cost-vs-QoS objective, using the sweep engine as its batch evaluator.
//!
//! The paper's §6.3 thought experiment — the same total capacity spread
//! over 29 hubs instead of nine clusters saves markedly more — shows that
//! *where capacity sits* moves the achievable electricity savings as much
//! as any routing knob. The `deployment_grid` harness can enumerate a
//! handful of hand-picked placements; this crate searches the space:
//!
//! * a [`SearchSpace`] encodes placements as integer capacity quanta over
//!   candidate hubs (zero = hub not built), so capacity reallocation and
//!   hub subset selection are one move vocabulary;
//! * a [`SweepEvaluator`] turns each candidate batch into a
//!   [`ScenarioSweep`](wattroute::sweep::ScenarioSweep) over a persistent
//!   [`CompiledArtifacts`](wattroute::sweep::CompiledArtifacts) cache —
//!   revisiting a hub list never recompiles billing matrices or routing
//!   geometry (pinned by an exact compile-count test);
//! * an [`wattroute::objective::Objective`] scores each
//!   simulated report as energy dollars + SLA penalty on rejected or
//!   overflowed demand + an optional distance-performance penalty;
//! * a [`RiskEvaluator`] re-scores candidates over Monte Carlo price-path
//!   distributions ([`wattroute::montecarlo`]), adding a CVaR risk premium
//!   so robust placements beat fragile ones at equal expected cost;
//! * two deterministic, seeded [`OptimizerStrategy`] implementations —
//!   [`GreedyDescent`] and [`LocalSearch`] — search the simplex with
//!   early termination;
//! * a [`DeploymentOptimizer`] drives the loop and emits an
//!   [`OptimizerReport`] audit trail (every candidate, every objective
//!   term, the evaluation count, the cache statistics), JSON-serializable
//!   through `wattroute::json`.
//!
//! ```
//! use wattroute::prelude::*;
//! use wattroute_optimizer::{DeploymentOptimizer, GreedyDescent, SearchBudget, SearchSpace};
//!
//! let start = SimHour::from_date(2008, 12, 19);
//! let scenario = Scenario::custom_window(9, HourRange::new(start, start.plus_hours(24)));
//! // Search the nine-cluster deployment's own hubs at a coarse quantum.
//! let (space, incumbent) = SearchSpace::from_deployment(&scenario.clusters, 800);
//! let config = scenario.config.clone().with_overflow(OverflowMode::Reject);
//! let report = DeploymentOptimizer::new(space, &scenario.trace, &scenario.prices, config)
//!     .with_budget(SearchBudget::smoke())
//!     .with_start(incumbent)
//!     .run(&mut GreedyDescent::default());
//! assert!(report.best.total_dollars() <= report.start.total_dollars());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod evaluator;
pub mod report;
pub mod risk;
pub mod space;
pub mod strategy;

pub use evaluator::{policy_factory, price_conscious_factory, SharedPolicyFactory, SweepEvaluator};
pub use report::{CacheStats, CandidateRecord, IterationRecord, OptimizerReport};
pub use risk::RiskEvaluator;
pub use space::{CandidateHub, CandidateSplit, SearchSpace};
pub use strategy::{GreedyDescent, LocalSearch, OptimizerStrategy, ScoredCandidate, SearchBudget};

use wattroute::objective::Objective;
use wattroute::simulation::SimulationConfig;
use wattroute_market::types::PriceSet;
use wattroute_routing::constraints::HubBandwidthCaps;
use wattroute_workload::trace::Trace;

/// The distance threshold of the price-conscious routing every candidate
/// is evaluated under: the paper's preferred 1500 km.
const CANDIDATE_THRESHOLD_KM: f64 = 1500.0;

/// The optimizer driver: binds a search space to a scenario (trace,
/// prices, simulation configuration), an objective and a budget, and runs
/// strategies over it. Every candidate is routed price-consciously at the
/// paper's preferred 1500 km threshold.
pub struct DeploymentOptimizer<'a> {
    space: SearchSpace,
    trace: &'a Trace,
    prices: &'a PriceSet,
    config: SimulationConfig,
    objective: Objective,
    budget: SearchBudget,
    threads: Option<usize>,
    start: Option<CandidateSplit>,
    hub_caps: Option<HubBandwidthCaps>,
}

impl<'a> DeploymentOptimizer<'a> {
    /// Bind an optimizer. Defaults: the
    /// [`Objective::default_qos`] objective, the default
    /// [`SearchBudget`], the sweep engine's default worker count, and an
    /// even starting split.
    ///
    /// Run candidates under
    /// [`OverflowMode::Reject`](wattroute_routing::constraints::OverflowMode) (set
    /// it on `config`) so under-provisioned placements surface
    /// `rejected_hits` for the objective's SLA term to price.
    pub fn new(
        space: SearchSpace,
        trace: &'a Trace,
        prices: &'a PriceSet,
        config: SimulationConfig,
    ) -> Self {
        Self {
            space,
            trace,
            prices,
            config,
            objective: Objective::default_qos(),
            budget: SearchBudget::default(),
            threads: None,
            start: None,
            hub_caps: None,
        }
    }

    /// Search *under* calibrated 95/5 bandwidth caps: every candidate is
    /// simulated with the hub-keyed caps resolved against its own active
    /// hubs (see
    /// [`CalibratedScenario::hub_caps`](wattroute::constraints::CalibratedScenario::hub_caps)).
    /// Hubs the calibration never observed are unconstrained. Constraints
    /// are run-state, not compiled geometry, so the artifact cache works
    /// exactly as hard as an unconstrained search over the same
    /// trajectory.
    pub fn with_hub_caps(mut self, caps: HubBandwidthCaps) -> Self {
        self.hub_caps = Some(caps);
        self
    }

    /// Replace the objective.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Replace the search budget.
    pub fn with_budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Pin the evaluator's worker-pool size (default:
    /// `std::thread::available_parallelism`).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "worker pool needs at least one thread");
        self.threads = Some(threads);
        self
    }

    /// Start the search from a specific split instead of the even one.
    pub fn with_start(mut self, start: CandidateSplit) -> Self {
        self.space.validate(&start);
        self.start = Some(start);
        self
    }

    /// The search space.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// Run one strategy to completion and return the audit trail. Each
    /// call builds a fresh evaluator (and artifact cache) so separate
    /// runs are independent and individually reproducible.
    pub fn run(&self, strategy: &mut dyn OptimizerStrategy) -> OptimizerReport {
        let mut evaluator = SweepEvaluator::new(self.trace, self.prices, self.config.clone());
        if let Some(threads) = self.threads {
            evaluator = evaluator.with_threads(threads);
        }
        if let Some(caps) = &self.hub_caps {
            evaluator = evaluator.with_hub_caps(caps.clone());
        }
        self.run_on(strategy, &mut evaluator)
    }

    /// Like [`Self::run`], but on a caller-supplied evaluator, so a
    /// *sequence* of searches — an unconstrained pass followed by a
    /// capped one, or several strategies — shares one persistent
    /// [`CompiledArtifacts`](wattroute::sweep::CompiledArtifacts) cache:
    /// hub lists any earlier run compiled are never recompiled, whatever
    /// the constraint regime. The evaluator's own configuration and hub
    /// caps define the simulation regime (this optimizer's `config` /
    /// `with_hub_caps` settings only shape the evaluator [`Self::run`]
    /// builds internally); the report's `evaluations` counts this run
    /// alone, while its cache statistics are the evaluator's cumulative
    /// totals.
    pub fn run_on(
        &self,
        strategy: &mut dyn OptimizerStrategy,
        evaluator: &mut SweepEvaluator<'_>,
    ) -> OptimizerReport {
        let evaluations_before = evaluator.evaluations();

        let mut iterations: Vec<IterationRecord> = Vec::new();
        let mut best_total = f64::INFINITY;
        let space = &self.space;
        let objective = &self.objective;
        let policy = &price_conscious_factory(CANDIDATE_THRESHOLD_KM);
        let mut score = |splits: &[CandidateSplit]| -> Vec<ScoredCandidate> {
            let candidates: Vec<_> = splits.iter().map(|s| space.materialize(s)).collect();
            let reports = evaluator.evaluate(&candidates, policy);
            let scored: Vec<ScoredCandidate> = splits
                .iter()
                .zip(&reports)
                .map(|(split, report)| ScoredCandidate {
                    split: split.clone(),
                    terms: objective.score(report),
                })
                .collect();
            for candidate in &scored {
                best_total = best_total.min(candidate.total());
            }
            iterations.push(IterationRecord {
                candidates: scored.iter().map(CandidateRecord::from_scored).collect(),
                incumbent_total_dollars: best_total,
            });
            scored
        };

        // Iteration 0: score the starting split itself.
        let start_split = self.start.clone().unwrap_or_else(|| self.space.even_split());
        let start = score(std::slice::from_ref(&start_split))
            .pop()
            .expect("start evaluation produces one candidate");

        let best = strategy.search(&self.space, start.clone(), &self.budget, &mut score);

        let best_hubs = self
            .space
            .hubs()
            .iter()
            .zip(&best.split)
            .filter(|(_, &units)| units > 0)
            .map(|(hub, _)| hub.label.clone())
            .collect();
        OptimizerReport {
            strategy: strategy.name().to_string(),
            best_hubs,
            start: CandidateRecord::from_scored(&start),
            best: CandidateRecord::from_scored(&best),
            evaluations: evaluator.evaluations() - evaluations_before,
            iterations,
            cache: CacheStats::from_artifacts(evaluator.artifacts()),
        }
    }
}
