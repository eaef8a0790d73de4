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
//!   overflowed demand + an optional distance-performance penalty + the
//!   weighted 95/5 bandwidth bill;
//! * two deterministic, seeded [`OptimizerStrategy`] implementations —
//!   [`GreedyDescent`] and [`LocalSearch`] — search the simplex with
//!   early termination;
//! * a [`DeploymentOptimizer`] drives the loop on a caller's evaluator and
//!   emits an [`OptimizerReport`] audit trail (every candidate, every
//!   objective term, the evaluation count, the cache statistics),
//!   JSON-serializable through `wattroute::json`.
//!
//! ```
//! use wattroute::prelude::*;
//! use wattroute_optimizer::{
//!     DeploymentOptimizer, GreedyDescent, SearchBudget, SearchSpace, SweepEvaluator,
//! };
//!
//! let start = SimHour::from_date(2008, 12, 19);
//! let scenario = Scenario::custom_window(9, HourRange::new(start, start.plus_hours(24)));
//! // Search the nine-cluster deployment's own hubs at a coarse quantum.
//! let (space, incumbent) = SearchSpace::from_deployment(&scenario.clusters, 800);
//! let config = scenario.config.clone().with_overflow(OverflowMode::Reject);
//! let mut evaluator = SweepEvaluator::new(&scenario.trace, &scenario.prices, config);
//! let report = DeploymentOptimizer::new(space)
//!     .with_budget(SearchBudget::smoke())
//!     .with_start(incumbent)
//!     .run(&mut GreedyDescent::default(), &mut evaluator);
//! assert!(report.best.total_dollars() <= report.start.total_dollars());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod evaluator;
pub mod report;
pub mod space;
pub mod strategy;

pub use evaluator::{policy_factory, price_conscious_factory, SweepEvaluator};
pub use report::{CacheStats, CandidateRecord, IterationRecord, OptimizerReport};
pub use space::{CandidateHub, CandidateSplit, SearchSpace};
pub use strategy::{GreedyDescent, LocalSearch, OptimizerStrategy, ScoredCandidate, SearchBudget};

use wattroute::objective::Objective;

/// The distance threshold of the price-conscious routing every candidate
/// is evaluated under: the paper's preferred 1500 km.
const CANDIDATE_THRESHOLD_KM: f64 = 1500.0;

/// The optimizer driver: binds a search space to an objective, a budget
/// and a starting split, and runs strategies over it on a caller's
/// [`SweepEvaluator`], which owns the scenario (trace, prices, simulation
/// configuration, hub caps, worker count). Every candidate is routed
/// price-consciously at the paper's preferred 1500 km threshold.
pub struct DeploymentOptimizer {
    space: SearchSpace,
    objective: Objective,
    budget: SearchBudget,
    start: Option<CandidateSplit>,
}

impl DeploymentOptimizer {
    /// Bind an optimizer to a search space. Defaults: the
    /// [`Objective::default_qos`] objective, the default [`SearchBudget`],
    /// and an even starting split.
    pub fn new(space: SearchSpace) -> Self {
        Self {
            space,
            objective: Objective::default_qos(),
            budget: SearchBudget::default(),
            start: None,
        }
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

    /// Run one strategy to completion on `evaluator` and return the audit
    /// trail. The evaluator's configuration and hub caps define the
    /// simulation regime: run candidates under
    /// [`OverflowMode::Reject`](wattroute_routing::constraints::OverflowMode)
    /// (set it on the evaluator's configuration) so under-provisioned
    /// placements surface `rejected_hits` for the objective's SLA term to
    /// price. A *sequence* of searches on one evaluator — an unconstrained
    /// pass followed by a capped one, or several strategies — shares its
    /// persistent [`CompiledArtifacts`](wattroute::sweep::CompiledArtifacts)
    /// cache: hub lists any earlier run compiled are never recompiled,
    /// whatever the constraint regime. The report's `evaluations` counts
    /// this run alone, while its cache statistics are the evaluator's
    /// cumulative totals; a fresh evaluator per run makes runs independent
    /// and individually reproducible.
    pub fn run(
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
